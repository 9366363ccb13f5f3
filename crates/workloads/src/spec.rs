//! Schedulable workloads: the public spec and the hidden ground truth.

use std::fmt;

use crate::class::WorkloadClass;
use crate::dataset::Dataset;
use crate::load::LoadPattern;
use crate::model::PerfModel;
use crate::target::QosTarget;

/// Unique identifier of a workload within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkloadId(pub u64);

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Scheduling priority: the paper distinguishes primary workloads with QoS
/// guarantees from best-effort fill that "may be migrated or killed at any
/// point".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Has a QoS target the manager must meet.
    Guaranteed,
    /// Soaks up idle capacity; no guarantees.
    BestEffort,
}

/// What a user submits to the cluster manager: the workload's class, its
/// dataset, and a performance target — *not* a resource reservation.
///
/// This is the only workload information a manager is allowed to see
/// up-front; everything else must be learned by profiling and
/// classification.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Identifier.
    pub id: WorkloadId,
    /// Human-readable name (e.g. `"H8"`).
    pub name: String,
    /// Workload class.
    pub class: WorkloadClass,
    /// Dataset the workload runs on.
    pub dataset: Dataset,
    /// The performance constraint to meet.
    pub target: QosTarget,
    /// Guaranteed or best-effort.
    pub priority: Priority,
}

impl WorkloadSpec {
    /// Whether this workload is best-effort fill.
    pub fn is_best_effort(&self) -> bool {
        self.priority == Priority::BestEffort
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} -> {}",
            self.id, self.class, self.name, self.target
        )
    }
}

/// A complete workload: the public spec plus the hidden ground-truth
/// performance model and, for services, the offered-load pattern.
///
/// The cluster simulator holds `Workload`s; managers only ever receive
/// `&WorkloadSpec` plus measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    spec: WorkloadSpec,
    model: PerfModel,
    load: Option<LoadPattern>,
}

impl Workload {
    /// Creates a workload from its parts.
    ///
    /// # Panics
    ///
    /// Panics if a latency-critical class is missing a load pattern, if a
    /// batch class has one, or if the model kind does not match the class.
    pub fn new(spec: WorkloadSpec, model: PerfModel, load: Option<LoadPattern>) -> Workload {
        assert_eq!(
            spec.class.is_latency_critical(),
            load.is_some(),
            "latency-critical workloads need a load pattern; batch must not have one"
        );
        assert_eq!(
            spec.class.is_latency_critical(),
            matches!(model, PerfModel::Service(_)),
            "model kind must match the workload class"
        );
        Workload { spec, model, load }
    }

    /// The public spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The workload id.
    pub fn id(&self) -> WorkloadId {
        self.spec.id
    }

    /// The ground-truth performance model. Only the simulator should call
    /// this; managers must go through measurements.
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// The offered-load pattern (services only).
    pub fn load(&self) -> Option<&LoadPattern> {
        self.load.as_ref()
    }

    /// Offered load at time `t`; zero for batch workloads.
    pub fn offered_qps(&self, t: f64) -> f64 {
        self.load.as_ref().map_or(0.0, |l| l.qps_at(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BatchModel, ServiceModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn batch_spec(id: u64) -> WorkloadSpec {
        WorkloadSpec {
            id: WorkloadId(id),
            name: format!("H{id}"),
            class: WorkloadClass::Hadoop,
            dataset: Dataset::new("d", 10.0, 1.0),
            target: QosTarget::completion(3600.0),
            priority: Priority::Guaranteed,
        }
    }

    #[test]
    fn batch_workload_has_no_load() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = PerfModel::Batch(BatchModel::sample(
            Dataset::new("d", 10.0, 1.0),
            true,
            &mut rng,
        ));
        let w = Workload::new(batch_spec(1), model, None);
        assert_eq!(w.offered_qps(100.0), 0.0);
        assert!(w.model().as_batch().is_some());
    }

    #[test]
    #[should_panic(expected = "load pattern")]
    fn service_without_load_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = WorkloadSpec {
            class: WorkloadClass::Memcached,
            target: QosTarget::throughput(1000.0, 200.0),
            ..batch_spec(2)
        };
        let model = PerfModel::Service(ServiceModel::sample(
            Dataset::new("d", 1.0, 1.0),
            10.0,
            false,
            &mut rng,
        ));
        Workload::new(spec, model, None);
    }

    #[test]
    #[should_panic(expected = "model kind must match")]
    fn mismatched_model_kind_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = WorkloadSpec {
            class: WorkloadClass::Memcached,
            target: QosTarget::throughput(1000.0, 200.0),
            ..batch_spec(3)
        };
        let model = PerfModel::Batch(BatchModel::sample(
            Dataset::new("d", 1.0, 1.0),
            true,
            &mut rng,
        ));
        Workload::new(spec, model, Some(LoadPattern::Flat { qps: 100.0 }));
    }

    #[test]
    fn best_effort_flag() {
        let mut spec = batch_spec(4);
        spec.priority = Priority::BestEffort;
        assert!(spec.is_best_effort());
    }

    #[test]
    fn display_contains_id_and_class() {
        let s = batch_spec(8);
        let text = s.to_string();
        assert!(text.contains("w8"));
        assert!(text.contains("hadoop"));
    }
}
