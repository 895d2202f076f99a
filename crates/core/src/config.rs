//! Quasar manager configuration.

/// Tunables of the Quasar manager; defaults follow the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuasarConfig {
    /// Profiling entries per classification row (the input-matrix density
    /// knob of Fig. 3; the paper settles on 2).
    pub profiling_entries: usize,
    /// Offline-characterized training workloads per goal kind (the paper
    /// exhaustively profiles 20–30 workload types offline).
    pub training_workloads: usize,
    /// QoS slack: a workload within this fraction of its target counts as
    /// on track (the paper quotes ~5% deviations).
    pub qos_slack: f64,
    /// Consecutive off-track observations before adaptation kicks in.
    pub miss_threshold: u32,
    /// Seconds between adaptation scans.
    pub adapt_interval_s: f64,
    /// Seconds between proactive phase-detection sweeps (10 min in §4.1).
    pub proactive_interval_s: f64,
    /// Fraction of running workloads sampled per proactive sweep (20%).
    pub proactive_fraction: f64,
    /// Acceptable QoS loss when probing interference sensitivity (5%).
    pub probe_qos_loss: f64,
    /// Maximum nodes the greedy scheduler will allocate to one workload.
    pub max_nodes: usize,
    /// Cores given to a best-effort job slice.
    pub best_effort_cores: u32,
    /// Memory given to a best-effort job slice, in GB.
    pub best_effort_memory_gb: f64,
    /// Enable the resource-partitioning extension (§4.4): when a
    /// latency-critical workload is off track and the manager's estimated
    /// interference penalty on its servers is severe, enable hardware
    /// partitioning instead of (before) adding resources.
    pub resource_partitioning: bool,
    /// Enable the load-prediction extension (§4.1 future work): scale
    /// user-facing services when the *forecast* load outgrows the current
    /// provisioning point, before latency degrades.
    pub predictive_scaling: bool,
    /// How far ahead the predictor looks, in seconds.
    pub prediction_lead_s: f64,
    /// Seed for profiling-configuration randomization.
    pub seed: u64,
    /// Worker threads for the per-axis classification fan-out
    /// ([`crate::Classifier::with_threads`]). Classification is a pure
    /// function of its inputs, so any value produces bit-identical
    /// results; 1 (the default) keeps the serial path.
    pub threads: usize,
}

impl Default for QuasarConfig {
    fn default() -> QuasarConfig {
        QuasarConfig {
            profiling_entries: 2,
            training_workloads: 24,
            qos_slack: 0.05,
            miss_threshold: 2,
            adapt_interval_s: 30.0,
            proactive_interval_s: 600.0,
            proactive_fraction: 0.20,
            probe_qos_loss: 0.05,
            max_nodes: 32,
            best_effort_cores: 2,
            best_effort_memory_gb: 2.0,
            resource_partitioning: false,
            predictive_scaling: false,
            prediction_lead_s: 120.0,
            seed: 0x9A5A,
            threads: 1,
        }
    }
}

impl QuasarConfig {
    /// A configuration with smaller training pools and coarser intervals,
    /// for fast tests.
    pub fn fast_test() -> QuasarConfig {
        QuasarConfig {
            training_workloads: 8,
            adapt_interval_s: 15.0,
            ..QuasarConfig::default()
        }
    }

    /// The default configuration with the predictive-scaling extension
    /// enabled.
    pub fn predictive() -> QuasarConfig {
        QuasarConfig {
            predictive_scaling: true,
            ..QuasarConfig::default()
        }
    }

    /// Returns the configuration with out-of-range knobs clamped to safe
    /// values. Manager construction funnels every config through this.
    ///
    /// `proactive_fraction` multiplies a running-set length and goes
    /// through `ceil() as usize`, so a NaN or out-of-range value would
    /// produce a bogus sample count: NaN and negatives become 0.0 (no
    /// proactive sampling), anything above 1.0 becomes 1.0 (sample
    /// everything).
    pub fn validated(mut self) -> QuasarConfig {
        self.proactive_fraction = if self.proactive_fraction.is_nan() {
            0.0
        } else {
            self.proactive_fraction.clamp(0.0, 1.0)
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validated_clamps_proactive_fraction() {
        let with = |f: f64| {
            QuasarConfig {
                proactive_fraction: f,
                ..QuasarConfig::default()
            }
            .validated()
        };
        assert_eq!(with(f64::NAN).proactive_fraction, 0.0);
        assert_eq!(with(-0.3).proactive_fraction, 0.0);
        assert_eq!(with(7.5).proactive_fraction, 1.0);
        assert_eq!(with(0.2).proactive_fraction, 0.2);
        // Everything else passes through untouched.
        assert_eq!(with(0.2), QuasarConfig::default());
    }

    #[test]
    fn defaults_match_paper_constants() {
        let c = QuasarConfig::default();
        assert_eq!(c.profiling_entries, 2);
        assert_eq!(c.proactive_interval_s, 600.0);
        assert!((c.proactive_fraction - 0.2).abs() < 1e-12);
        assert!((c.probe_qos_loss - 0.05).abs() < 1e-12);
    }
}
