//! Framework parameters for analytics jobs.
//!
//! For workloads like Hadoop, Quasar also configures the most important
//! framework parameters (paper §3.2 and Table 3): mappers per node, JVM
//! heap size, block size, replication, and compression. The ground-truth
//! effect of these knobs lives in [`crate::BatchModel`]; this module
//! defines the parameter space itself.

use std::fmt;

/// Compression codec choice for intermediate data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compression {
    /// No compression: no CPU cost, full I/O volume.
    None,
    /// LZO-style: cheap CPU, moderate ratio (paper's Hadoop default, 5.1x).
    Lzo,
    /// Gzip-style: more CPU, better ratio (Quasar picks 7.6x for H8).
    Gzip,
}

impl Compression {
    /// All codecs.
    pub const ALL: [Compression; 3] = [Compression::None, Compression::Lzo, Compression::Gzip];

    /// Approximate compression ratio on intermediate data.
    pub fn ratio(self) -> f64 {
        match self {
            Compression::None => 1.0,
            Compression::Lzo => 5.1,
            Compression::Gzip => 7.6,
        }
    }

    /// Relative CPU cost of compressing (1.0 = free).
    pub fn cpu_cost(self) -> f64 {
        match self {
            Compression::None => 1.0,
            Compression::Lzo => 1.04,
            Compression::Gzip => 1.10,
        }
    }
}

impl fmt::Display for Compression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Compression::None => write!(f, "none"),
            Compression::Lzo => write!(f, "lzo"),
            Compression::Gzip => write!(f, "gzip"),
        }
    }
}

/// Tunable framework parameters for a Hadoop/Spark/Storm-style job.
///
/// # Examples
///
/// ```
/// use quasar_workloads::FrameworkParams;
///
/// let p = FrameworkParams::hadoop_default();
/// assert_eq!(p.mappers_per_node, 8);
/// assert!(FrameworkParams::search_space().len() > 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameworkParams {
    /// Parallel worker tasks per node.
    pub mappers_per_node: u32,
    /// JVM heap per task, in GB.
    pub heap_gb: f64,
    /// HDFS block size in MB.
    pub block_size_mb: u32,
    /// Replication factor for intermediate data.
    pub replication: u32,
    /// Compression codec for intermediate data.
    pub compression: Compression,
}

impl FrameworkParams {
    /// The stock Hadoop configuration the paper compares against
    /// (Table 3): 8 mappers/node, 1 GB heap, 64 MB blocks, 2x
    /// replication, LZO.
    pub fn hadoop_default() -> FrameworkParams {
        FrameworkParams {
            mappers_per_node: 8,
            heap_gb: 1.0,
            block_size_mb: 64,
            replication: 2,
            compression: Compression::Lzo,
        }
    }

    /// Memory footprint per node implied by these parameters, in GB.
    pub fn memory_per_node_gb(&self) -> f64 {
        self.mappers_per_node as f64 * self.heap_gb
    }

    /// The discrete search space of framework configurations a manager may
    /// choose from (the columns of the scale-up classification matrix for
    /// framework workloads).
    pub fn search_space() -> Vec<FrameworkParams> {
        let mut space = Vec::new();
        for &mappers in &[4u32, 8, 12, 16] {
            for &heap_gb in &[0.5, 0.75, 1.0, 2.0] {
                for &compression in &[Compression::Lzo, Compression::Gzip] {
                    space.push(FrameworkParams {
                        mappers_per_node: mappers,
                        heap_gb,
                        block_size_mb: 64,
                        replication: 2,
                        compression,
                    });
                }
            }
        }
        space
    }
}

/// The node count stock Hadoop would provision for a dataset: enough
/// 8-mapper workers to finish the map tasks in about four waves, capped
/// at the configured worker pool of 8 (deadline-oblivious, data-driven —
/// the sizing the paper's framework-scheduler baseline uses, and the node
/// count at which the parameter-sweep targets of §6.1 are defined).
pub fn hadoop_wave_nodes(dataset_size_gb: f64) -> usize {
    let tasks = (dataset_size_gb * 1024.0 / 64.0).ceil();
    ((tasks / (8.0 * 4.0)).ceil() as usize).clamp(1, 8)
}

impl Default for FrameworkParams {
    fn default() -> FrameworkParams {
        FrameworkParams::hadoop_default()
    }
}

impl fmt::Display for FrameworkParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} mappers/node, {:.2}GB heap, {}MB blocks, {}x repl, {}",
            self.mappers_per_node,
            self.heap_gb,
            self.block_size_mb,
            self.replication,
            self.compression
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table3() {
        let p = FrameworkParams::hadoop_default();
        assert_eq!(p.mappers_per_node, 8);
        assert_eq!(p.heap_gb, 1.0);
        assert_eq!(p.compression, Compression::Lzo);
        assert_eq!(p.compression.ratio(), 5.1);
    }

    #[test]
    fn memory_per_node_multiplies() {
        let p = FrameworkParams::hadoop_default();
        assert_eq!(p.memory_per_node_gb(), 8.0);
    }

    #[test]
    fn search_space_is_unique_and_sized() {
        let space = FrameworkParams::search_space();
        assert_eq!(space.len(), 4 * 4 * 2);
        for (i, a) in space.iter().enumerate() {
            for b in &space[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn wave_nodes_scale_with_data_and_cap() {
        assert_eq!(hadoop_wave_nodes(2.1), 2);
        assert!(hadoop_wave_nodes(10.0) >= 4);
        assert_eq!(hadoop_wave_nodes(900.0), 8);
    }

    #[test]
    fn gzip_compresses_more_but_costs_cpu() {
        assert!(Compression::Gzip.ratio() > Compression::Lzo.ratio());
        assert!(Compression::Gzip.cpu_cost() > Compression::Lzo.cpu_cost());
    }
}
