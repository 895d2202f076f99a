//! Ground-truth performance models.
//!
//! A [`PerfModel`] answers "how fast does this workload run under this
//! exact allocation and assignment?" — the quantity the real cluster would
//! exhibit and that Quasar's classifier estimates from sparse profiling.

mod batch;
mod service;

pub use batch::BatchModel;
pub use service::{ServiceModel, ServiceObservation};

use crate::platform::{Platform, LATENT_DIM};
use quasar_interference::InterferenceProfile;

/// Resources allocated to a workload on a single node.
///
/// # Examples
///
/// ```
/// use quasar_workloads::NodeResources;
///
/// let r = NodeResources::new(8, 16.0);
/// assert_eq!(r.cores, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeResources {
    /// Cores allocated on the node.
    pub cores: u32,
    /// Memory allocated on the node, in GB.
    pub memory_gb: f64,
}

impl NodeResources {
    /// Creates a per-node resource allocation.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `memory_gb` is not positive; use
    /// [`NodeResources::try_new`] for a fallible variant.
    pub fn new(cores: u32, memory_gb: f64) -> NodeResources {
        NodeResources::try_new(cores, memory_gb).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a per-node resource allocation from untrusted values.
    ///
    /// # Errors
    ///
    /// Says why when `cores` is zero or `memory_gb` is not finite and
    /// positive.
    pub fn try_new(cores: u32, memory_gb: f64) -> Result<NodeResources, &'static str> {
        if cores == 0 {
            return Err("allocations need at least one core");
        }
        if !(memory_gb.is_finite() && memory_gb > 0.0) {
            return Err("allocations need positive memory");
        }
        Ok(NodeResources { cores, memory_gb })
    }

    /// The full resources of a platform.
    pub fn all_of(platform: &Platform) -> NodeResources {
        NodeResources::new(platform.cores, platform.memory_gb)
    }
}

/// Platform affinity in `[0, 1]` from the latent vectors of a workload and
/// a platform. This is what makes the workload × configuration performance
/// matrices approximately low-rank — the structure collaborative filtering
/// recovers (paper §3.2).
pub(crate) fn affinity(weights: &[f64; LATENT_DIM], platform: &Platform) -> f64 {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0.5;
    }
    let dot: f64 = weights
        .iter()
        .zip(platform.latent.iter())
        .map(|(w, l)| w * l)
        .sum();
    (dot / total).clamp(0.0, 1.0)
}

/// Relative speed of `platform` for a workload with the given latent
/// weights: per-core speed scaled by microarchitectural affinity.
///
/// The affinity band (0.55–1.20) is calibrated so a workload's per-core
/// spread across platforms is ~2x from affinity and ~3x from clock/IPC,
/// with core count adding the rest of Fig. 2's ~7x node-level spread.
pub(crate) fn platform_speed(weights: &[f64; LATENT_DIM], platform: &Platform) -> f64 {
    platform.core_speed * (0.55 + 0.65 * affinity(weights, platform))
}

/// The four resource-usage archetypes that interference profiles mix:
/// compute-, memory-, storage-, and network-bound. Per shared resource
/// (index order of [`quasar_interference::SharedResource::ALL`]), the
/// value is how intensely that archetype exercises the resource.
///
/// Real workloads are approximate mixtures of a few such behaviours —
/// which is exactly the low-rank structure that lets collaborative
/// filtering recover a full interference profile from two microbenchmark
/// ramps (paper §3.2; Paragon's key observation).
const ARCHETYPES: [[f64; quasar_interference::RESOURCE_COUNT]; 4] = [
    // cpu   l1i   l2    llc   membw memcap prefetch disk  net   tlb
    [0.90, 0.55, 0.60, 0.35, 0.25, 0.15, 0.45, 0.05, 0.10, 0.35], // compute
    [0.30, 0.25, 0.55, 0.85, 0.90, 0.70, 0.60, 0.05, 0.10, 0.45], // memory
    [0.15, 0.10, 0.15, 0.25, 0.30, 0.40, 0.10, 0.95, 0.20, 0.10], // storage
    [0.30, 0.15, 0.15, 0.20, 0.25, 0.15, 0.10, 0.10, 0.95, 0.10], // network
];

/// Samples an interference profile as a noisy archetype mixture.
///
/// `usage` scales the pressure the workload causes (0–1); `fragility`
/// scales how far below the no-impact point its tolerances sit (services
/// pass a higher fragility than batch jobs).
pub(crate) fn sample_interference<R: rand::Rng + ?Sized>(
    rng: &mut R,
    usage: f64,
    fragility: f64,
) -> InterferenceProfile {
    use quasar_interference::{PressureVector, SharedResource};

    // Mixture weights: skewed so most workloads have one dominant
    // behaviour plus a secondary one.
    let mut weights = [0.0; 4];
    for w in &mut weights {
        *w = rng.random_range(0.0_f64..1.0).powi(2);
    }
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total.max(1e-9);
    }

    let mut tolerated = PressureVector::zero();
    let mut caused = PressureVector::zero();
    for r in SharedResource::ALL {
        let i = r.index();
        let vulnerability: f64 = (0..4).map(|k| weights[k] * ARCHETYPES[k][i]).sum();
        let noise = rng.random_range(-4.0..4.0);
        tolerated.set(
            r,
            (100.0 * (1.0 - fragility * vulnerability) + noise).clamp(5.0, 98.0),
        );
        let noise = rng.random_range(-3.0..3.0);
        caused.set(r, (100.0 * usage * vulnerability + noise).clamp(0.0, 85.0));
    }
    InterferenceProfile::new(tolerated, caused)
}

/// The ground-truth performance surface of one workload instance.
///
/// Batch jobs expose a *work rate* (work units per second; completion time
/// = remaining work / rate); services expose a QPS capacity and a
/// latency-vs-load curve.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfModel {
    /// A run-to-completion analytics or single-node job.
    Batch(BatchModel),
    /// A latency-critical request-serving workload.
    Service(ServiceModel),
}

impl PerfModel {
    /// The workload's interference profile (caused and tolerated pressure).
    pub fn interference(&self) -> &InterferenceProfile {
        match self {
            PerfModel::Batch(m) => m.interference(),
            PerfModel::Service(m) => m.interference(),
        }
    }

    /// The batch model, if this is a batch workload.
    pub fn as_batch(&self) -> Option<&BatchModel> {
        match self {
            PerfModel::Batch(m) => Some(m),
            PerfModel::Service(_) => None,
        }
    }

    /// The service model, if this is a service workload.
    pub fn as_service(&self) -> Option<&ServiceModel> {
        match self {
            PerfModel::Batch(_) => None,
            PerfModel::Service(m) => Some(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformCatalog;

    #[test]
    fn affinity_is_bounded() {
        let cat = PlatformCatalog::local();
        let w = [1.0, 0.5, 0.0, 0.2, 0.9, 0.1];
        for p in cat.iter() {
            let a = affinity(&w, p);
            assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn zero_weights_fall_back_to_neutral() {
        let cat = PlatformCatalog::local();
        let w = [0.0; LATENT_DIM];
        assert_eq!(affinity(&w, cat.highest_end()), 0.5);
    }

    #[test]
    fn platform_speed_tracks_core_speed() {
        let cat = PlatformCatalog::local();
        let w = [1.0; LATENT_DIM];
        let slow = cat.by_name("A").unwrap();
        let fast = cat.by_name("J").unwrap();
        assert!(platform_speed(&w, fast) > platform_speed(&w, slow));
    }

    #[test]
    fn node_resources_validation() {
        let r = NodeResources::new(2, 4.0);
        assert_eq!(r.memory_gb, 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        NodeResources::new(0, 4.0);
    }
}
