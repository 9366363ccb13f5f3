//! Input datasets.

use std::fmt;

/// An input dataset for a workload: the paper shows (Fig. 2, rightmost
/// column) that dataset size and complexity shift performance by up to 3x,
/// which is why Quasar classifies every submission with its actual dataset
/// rather than caching per-application results.
///
/// # Examples
///
/// ```
/// use quasar_workloads::Dataset;
///
/// let netflix = Dataset::hadoop_catalog()[0].clone();
/// assert_eq!(netflix.name(), "netflix");
/// assert!(netflix.size_gb() > 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: String,
    size_gb: f64,
    complexity: f64,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// `complexity` is a relative per-byte processing cost (1.0 =
    /// baseline); it multiplies the work a batch job must do and the
    /// per-request cost of a service.
    ///
    /// # Panics
    ///
    /// Panics if `size_gb` or `complexity` is not positive and finite.
    pub fn new(name: impl Into<String>, size_gb: f64, complexity: f64) -> Dataset {
        assert!(
            size_gb.is_finite() && size_gb > 0.0,
            "dataset size must be positive"
        );
        assert!(
            complexity.is_finite() && complexity > 0.0,
            "dataset complexity must be positive"
        );
        Dataset {
            name: name.into(),
            size_gb,
            complexity,
        }
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Size in GB.
    pub fn size_gb(&self) -> f64 {
        self.size_gb
    }

    /// Relative per-byte processing cost.
    pub fn complexity(&self) -> f64 {
        self.complexity
    }

    /// The three Hadoop datasets of Table 1: Netflix (2.1 GB), Mahout
    /// (10 GB), Wikipedia (55 GB).
    pub fn hadoop_catalog() -> Vec<Dataset> {
        vec![
            Dataset::new("netflix", 2.1, 1.6),
            Dataset::new("mahout", 10.0, 1.0),
            Dataset::new("wikipedia", 55.0, 0.7),
        ]
    }

    /// The three memcached request mixes of Table 1: 100 B reads, 2 KB
    /// reads, 100 B read/write. Size models the per-request payload cost;
    /// complexity the read/write mix overhead.
    pub fn memcached_catalog() -> Vec<Dataset> {
        vec![
            Dataset::new("100B-reads", 1.0, 1.0),
            Dataset::new("2KB-reads", 2.0, 1.4),
            Dataset::new("100B-read-write", 1.0, 1.8),
        ]
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:.1}GB)", self.name, self.size_gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_have_three_entries() {
        assert_eq!(Dataset::hadoop_catalog().len(), 3);
        assert_eq!(Dataset::memcached_catalog().len(), 3);
    }

    #[test]
    #[should_panic(expected = "dataset size must be positive")]
    fn zero_size_panics() {
        Dataset::new("bad", 0.0, 1.0);
    }

    #[test]
    fn display_contains_name_and_size() {
        let d = Dataset::new("wiki", 55.0, 1.0);
        assert_eq!(d.to_string(), "wiki (55.0GB)");
    }
}
