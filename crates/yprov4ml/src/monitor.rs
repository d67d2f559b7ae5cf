//! Online training guidance (paper §3.2, "trade-offs oriented
//! training").
//!
//! "An online provenance tracking process could give real-time
//! guidelines in how to proceed during the training process,
//! understanding when to stop ... the process could be stopped when a
//! specific threshold of energy, compute, or performance is achieved,
//! removing unnecessary iterations."
//!
//! [`TrainingMonitor`] consumes the same stream the provenance
//! collector sees (loss, energy, walltime per step) and answers
//! *should this run keep going?* against a [`StopPolicy`].

/// Budgets and targets that end a run early.
#[derive(Debug, Clone, PartialEq)]
pub struct StopPolicy {
    /// Stop when the loss has not improved by at least `min_delta`
    /// for `patience` consecutive observations (plateau detection).
    pub patience: Option<usize>,
    /// Minimum improvement that resets the plateau counter.
    pub min_delta: f64,
    /// Stop when total energy exceeds this many joules.
    pub energy_budget_j: Option<f64>,
    /// Stop when walltime exceeds this many seconds.
    pub walltime_budget_s: Option<f64>,
    /// Stop (successfully) when the loss reaches this target.
    pub target_loss: Option<f64>,
}

impl Default for StopPolicy {
    fn default() -> Self {
        StopPolicy {
            patience: Some(50),
            min_delta: 1e-4,
            energy_budget_j: None,
            walltime_budget_s: None,
            target_loss: None,
        }
    }
}

/// What the monitor recommends after an observation.
#[derive(Debug, Clone, PartialEq)]
pub enum Advice {
    /// Keep training.
    Continue,
    /// Stop: the target loss was reached.
    TargetReached {
        /// The loss that met the target.
        loss: f64,
    },
    /// Stop: no improvement for the configured patience.
    Plateaued {
        /// Best loss seen.
        best_loss: f64,
        /// Observations since the best loss improved.
        stale_for: usize,
    },
    /// Stop: the energy budget is exhausted.
    EnergyExhausted {
        /// Joules consumed.
        joules: f64,
    },
    /// Stop: the walltime budget is exhausted.
    WalltimeExhausted {
        /// Seconds elapsed.
        seconds: f64,
    },
}

impl Advice {
    /// True when the advice is to stop.
    pub fn should_stop(&self) -> bool {
        !matches!(self, Advice::Continue)
    }
}

/// The stateful monitor.
#[derive(Debug, Clone)]
pub struct TrainingMonitor {
    policy: StopPolicy,
    best_loss: f64,
    stale: usize,
    observations: usize,
}

impl TrainingMonitor {
    /// Starts monitoring under `policy`.
    pub fn new(policy: StopPolicy) -> Self {
        TrainingMonitor {
            policy,
            best_loss: f64::INFINITY,
            stale: 0,
            observations: 0,
        }
    }

    /// Best loss seen so far.
    pub fn best_loss(&self) -> f64 {
        self.best_loss
    }

    /// Feeds one observation and returns the recommendation. Budget
    /// checks run before progress checks: a run out of energy stops
    /// even while still improving.
    pub fn observe(&mut self, loss: f64, joules: f64, walltime_s: f64) -> Advice {
        self.observations += 1;

        if let Some(budget) = self.policy.energy_budget_j {
            if joules >= budget {
                return Advice::EnergyExhausted { joules };
            }
        }
        if let Some(budget) = self.policy.walltime_budget_s {
            if walltime_s >= budget {
                return Advice::WalltimeExhausted {
                    seconds: walltime_s,
                };
            }
        }
        if let Some(target) = self.policy.target_loss {
            if loss.is_finite() && loss <= target {
                return Advice::TargetReached { loss };
            }
        }
        if loss.is_finite() && loss < self.best_loss - self.policy.min_delta {
            self.best_loss = loss;
            self.stale = 0;
        } else {
            self.stale += 1;
            if loss.is_finite() && loss < self.best_loss {
                // Track tiny improvements without resetting patience.
                self.best_loss = loss;
            }
        }
        if let Some(patience) = self.policy.patience {
            if self.stale >= patience {
                return Advice::Plateaued {
                    best_loss: self.best_loss,
                    stale_for: self.stale,
                };
            }
        }
        Advice::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improving_loss_continues() {
        let mut m = TrainingMonitor::new(StopPolicy::default());
        for step in 0..200 {
            // Steady improvement well above min_delta.
            let advice = m.observe(1.0 - step as f64 * 0.004, 0.0, step as f64);
            assert_eq!(advice, Advice::Continue, "step {step}");
        }
        assert!((m.best_loss() - (1.0 - 199.0 * 0.004)).abs() < 1e-12);
    }

    #[test]
    fn diminishing_returns_eventually_plateau() {
        // A realistic 1/x curve: improvements shrink below min_delta and
        // the monitor calls the plateau — the §3.2 "removing unnecessary
        // iterations" behaviour.
        let mut m = TrainingMonitor::new(StopPolicy::default());
        let mut stopped_at = None;
        for step in 0..10_000u64 {
            if m.observe(1.0 / (step + 1) as f64, 0.0, step as f64)
                .should_stop()
            {
                stopped_at = Some(step);
                break;
            }
        }
        let at = stopped_at.expect("must stop on diminishing returns");
        assert!(at > 90 && at < 1_000, "stopped at {at}");
    }

    #[test]
    fn plateau_triggers_after_patience() {
        let mut m = TrainingMonitor::new(StopPolicy {
            patience: Some(10),
            ..Default::default()
        });
        assert_eq!(m.observe(0.5, 0.0, 0.0), Advice::Continue);
        let mut stopped = None;
        for i in 0..20 {
            let advice = m.observe(0.5, 0.0, i as f64);
            if advice.should_stop() {
                stopped = Some((i, advice));
                break;
            }
        }
        let (at, advice) = stopped.expect("plateau must trigger");
        assert_eq!(at, 9, "exactly after `patience` stale observations");
        assert!(matches!(advice, Advice::Plateaued { stale_for: 10, .. }));
    }

    #[test]
    fn tiny_improvements_do_not_reset_patience() {
        let mut m = TrainingMonitor::new(StopPolicy {
            patience: Some(5),
            min_delta: 0.01,
            ..Default::default()
        });
        m.observe(1.0, 0.0, 0.0);
        // Improvements below min_delta: still stale.
        let mut last = Advice::Continue;
        for i in 0..5 {
            last = m.observe(1.0 - 0.001 * (i + 1) as f64, 0.0, 0.0);
        }
        assert!(last.should_stop());
        // But the best loss tracked the drift.
        assert!((m.best_loss() - 0.995).abs() < 1e-12);
    }

    #[test]
    fn energy_budget_stops_even_when_improving() {
        let mut m = TrainingMonitor::new(StopPolicy {
            energy_budget_j: Some(1_000.0),
            ..Default::default()
        });
        assert_eq!(m.observe(1.0, 500.0, 1.0), Advice::Continue);
        let advice = m.observe(0.5, 1_500.0, 2.0);
        assert!(matches!(advice, Advice::EnergyExhausted { joules } if joules == 1_500.0));
    }

    #[test]
    fn walltime_budget_stops() {
        let mut m = TrainingMonitor::new(StopPolicy {
            walltime_budget_s: Some(7_200.0),
            patience: None,
            ..Default::default()
        });
        assert_eq!(m.observe(1.0, 0.0, 7_199.0), Advice::Continue);
        assert!(m.observe(1.0, 0.0, 7_200.0).should_stop());
    }

    #[test]
    fn target_loss_stops_successfully() {
        let mut m = TrainingMonitor::new(StopPolicy {
            target_loss: Some(0.1),
            ..Default::default()
        });
        assert_eq!(m.observe(0.5, 0.0, 0.0), Advice::Continue);
        assert!(matches!(
            m.observe(0.09, 0.0, 1.0),
            Advice::TargetReached { loss } if loss == 0.09
        ));
    }

    #[test]
    fn nan_losses_count_as_stale() {
        let mut m = TrainingMonitor::new(StopPolicy {
            patience: Some(3),
            ..Default::default()
        });
        m.observe(1.0, 0.0, 0.0);
        m.observe(f64::NAN, 0.0, 1.0);
        m.observe(f64::NAN, 0.0, 2.0);
        assert!(m.observe(f64::NAN, 0.0, 3.0).should_stop());
    }

    #[test]
    fn disabled_policy_never_stops() {
        let mut m = TrainingMonitor::new(StopPolicy {
            patience: None,
            energy_budget_j: None,
            walltime_budget_s: None,
            target_loss: None,
            min_delta: 0.0,
        });
        for i in 0..1_000 {
            assert_eq!(m.observe(1.0, 1e9, 1e9), Advice::Continue, "obs {i}");
        }
        assert_eq!(m.observations, 1_000);
    }
}
