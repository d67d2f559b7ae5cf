//! Declarative threshold alerting over tsdb series.
//!
//! A rule names a series (as stored by [`crate::tsdb::Tsdb`] — counter
//! rates, gauge levels, or derived `:p99_ns`/`:mean_ns` histogram
//! series), a comparator, a threshold and a hold duration. The owning
//! scraper calls [`AlertSet::evaluate`] on every tick with a lookup
//! closure; rules walk the usual lifecycle:
//!
//! ```text
//!             breach                 held for `for_s`
//! Inactive ──────────▶ Pending ───────────────────────▶ Firing
//!     ▲                   │ clear                          │ clear
//!     │                   ▼                                ▼
//!     └───────────── (back to Inactive)                Resolved
//!                                                          │ breach
//!                                                          ▼
//!                                                       Pending
//! ```
//!
//! `Resolved` is a sticky tombstone — it records that the rule *did*
//! fire and has since cleared — and only a fresh breach moves it back
//! to `Pending`.
//!
//! Each rule exports an `alerts_firing{rule="<name>"}` gauge (1 while
//! firing, else 0) into whatever registry the owner passes to
//! [`AlertSet::export_to`], so alert state rides the normal `/metrics`
//! scrape with no extra surface. Like the tsdb, evaluation is
//! clock-agnostic: time is caller-supplied `f64` seconds, so the full
//! pending→firing→resolved walk is testable under a virtual clock.

use crate::instrument::Gauge;
use crate::registry::Registry;
use std::sync::{Arc, Mutex};

/// Threshold comparator: the rule breaches when `value cmp threshold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Gt,
    Ge,
    Lt,
    Le,
}

impl Cmp {
    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Cmp::Gt => value > threshold,
            Cmp::Ge => value >= threshold,
            Cmp::Lt => value < threshold,
            Cmp::Le => value <= threshold,
        }
    }

    /// The PromQL-style spelling, used in JSON listings.
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }

    /// Parses the [`symbol`](Cmp::symbol) spelling.
    pub fn parse(s: &str) -> Option<Cmp> {
        match s {
            ">" => Some(Cmp::Gt),
            ">=" => Some(Cmp::Ge),
            "<" => Some(Cmp::Lt),
            "<=" => Some(Cmp::Le),
            _ => None,
        }
    }
}

/// One declarative threshold rule.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Unique rule name; becomes the `rule` label of `alerts_firing`.
    pub name: String,
    /// The tsdb series the rule watches.
    pub metric: String,
    pub cmp: Cmp,
    pub threshold: f64,
    /// How long the breach must hold before Pending becomes Firing.
    /// Zero fires on the first breaching tick.
    pub for_s: f64,
}

impl AlertRule {
    pub fn new(
        name: impl Into<String>,
        metric: impl Into<String>,
        cmp: Cmp,
        threshold: f64,
        for_s: f64,
    ) -> AlertRule {
        AlertRule {
            name: name.into(),
            metric: metric.into(),
            cmp,
            threshold,
            for_s,
        }
    }
}

/// Where a rule currently sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Inactive,
    Pending,
    Firing,
    Resolved,
}

impl Phase {
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Inactive => "inactive",
            Phase::Pending => "pending",
            Phase::Firing => "firing",
            Phase::Resolved => "resolved",
        }
    }
}

/// The evaluated state of one rule, as returned by [`AlertSet::states`].
#[derive(Debug, Clone)]
pub struct AlertState {
    pub rule: AlertRule,
    pub phase: Phase,
    /// When the current breach streak started (Pending/Firing).
    pub pending_since_s: Option<f64>,
    /// When the rule last transitioned to Firing.
    pub fired_at_s: Option<f64>,
    /// When the rule last transitioned to Resolved.
    pub resolved_at_s: Option<f64>,
    /// The value seen at the most recent evaluation, if the series
    /// existed.
    pub last_value: Option<f64>,
}

struct RuleSlot {
    state: AlertState,
    gauge: Option<Arc<Gauge>>,
}

/// A set of rules evaluated together on each scrape tick.
pub struct AlertSet {
    slots: Mutex<Vec<RuleSlot>>,
}

impl AlertSet {
    pub fn new(rules: Vec<AlertRule>) -> AlertSet {
        AlertSet {
            slots: Mutex::new(
                rules
                    .into_iter()
                    .map(|rule| RuleSlot {
                        state: AlertState {
                            rule,
                            phase: Phase::Inactive,
                            pending_since_s: None,
                            fired_at_s: None,
                            resolved_at_s: None,
                            last_value: None,
                        },
                        gauge: None,
                    })
                    .collect(),
            ),
        }
    }

    /// Registers an `alerts_firing{rule="..."}` gauge per rule in
    /// `registry` (all starting at 0) and keeps the handles so
    /// [`evaluate`](AlertSet::evaluate) can flip them.
    pub fn export_to(&self, registry: &Registry) {
        registry.set_help(
            "alerts_firing",
            "1 while the named alert rule is firing, else 0.",
        );
        let mut slots = self.slots.lock().expect("alerts poisoned");
        for slot in slots.iter_mut() {
            let gauge = registry.gauge(&format!(
                "alerts_firing{{rule=\"{}\"}}",
                slot.state.rule.name
            ));
            gauge.set(0);
            slot.gauge = Some(gauge);
        }
    }

    /// One evaluation pass at `now_s`. `lookup` resolves a metric name
    /// to its most recent value — `None` means "no fresh data", which
    /// counts as *not breaching* (absent traffic clears rate alerts).
    pub fn evaluate(&self, now_s: f64, mut lookup: impl FnMut(&str) -> Option<f64>) {
        let mut slots = self.slots.lock().expect("alerts poisoned");
        for slot in slots.iter_mut() {
            let st = &mut slot.state;
            let value = lookup(&st.rule.metric);
            st.last_value = value;
            let breach = value.is_some_and(|v| st.rule.cmp.holds(v, st.rule.threshold));
            let next = match (st.phase, breach) {
                (Phase::Inactive | Phase::Resolved, true) => {
                    st.pending_since_s = Some(now_s);
                    if st.rule.for_s <= 0.0 {
                        st.fired_at_s = Some(now_s);
                        Phase::Firing
                    } else {
                        Phase::Pending
                    }
                }
                (Phase::Pending, true) => {
                    let since = st.pending_since_s.unwrap_or(now_s);
                    if now_s - since >= st.rule.for_s {
                        st.fired_at_s = Some(now_s);
                        Phase::Firing
                    } else {
                        Phase::Pending
                    }
                }
                (Phase::Pending, false) => {
                    st.pending_since_s = None;
                    Phase::Inactive
                }
                (Phase::Firing, false) => {
                    st.pending_since_s = None;
                    st.resolved_at_s = Some(now_s);
                    Phase::Resolved
                }
                (Phase::Firing, true) => Phase::Firing,
                (Phase::Inactive, false) => Phase::Inactive,
                (Phase::Resolved, false) => Phase::Resolved,
            };
            st.phase = next;
            if let Some(gauge) = &slot.gauge {
                gauge.set(i64::from(next == Phase::Firing));
            }
        }
    }

    /// A snapshot of every rule's current state, in rule order.
    pub fn states(&self) -> Vec<AlertState> {
        self.slots
            .lock()
            .expect("alerts poisoned")
            .iter()
            .map(|s| s.state.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(for_s: f64) -> AlertRule {
        AlertRule::new("hot", "load", Cmp::Gt, 10.0, for_s)
    }

    fn phase(set: &AlertSet) -> Phase {
        set.states()[0].phase
    }

    #[test]
    fn full_lifecycle_pending_firing_resolved() {
        let set = AlertSet::new(vec![rule(5.0)]);
        set.evaluate(0.0, |_| Some(1.0));
        assert_eq!(phase(&set), Phase::Inactive);
        set.evaluate(1.0, |_| Some(20.0));
        assert_eq!(phase(&set), Phase::Pending);
        set.evaluate(3.0, |_| Some(20.0));
        assert_eq!(phase(&set), Phase::Pending, "held only 2 s of 5");
        set.evaluate(6.0, |_| Some(20.0));
        assert_eq!(phase(&set), Phase::Firing);
        set.evaluate(7.0, |_| Some(1.0));
        assert_eq!(phase(&set), Phase::Resolved);
        set.evaluate(8.0, |_| Some(1.0));
        assert_eq!(phase(&set), Phase::Resolved, "resolved is sticky");
        let st = &set.states()[0];
        assert_eq!(st.fired_at_s, Some(6.0));
        assert_eq!(st.resolved_at_s, Some(7.0));
    }

    #[test]
    fn pending_clears_back_to_inactive() {
        let set = AlertSet::new(vec![rule(5.0)]);
        set.evaluate(0.0, |_| Some(20.0));
        assert_eq!(phase(&set), Phase::Pending);
        set.evaluate(1.0, |_| Some(1.0));
        assert_eq!(phase(&set), Phase::Inactive, "never fired");
        assert_eq!(set.states()[0].fired_at_s, None);
    }

    #[test]
    fn zero_hold_fires_immediately_and_resolved_can_refire() {
        let set = AlertSet::new(vec![rule(0.0)]);
        set.evaluate(0.0, |_| Some(20.0));
        assert_eq!(phase(&set), Phase::Firing);
        set.evaluate(1.0, |_| Some(1.0));
        assert_eq!(phase(&set), Phase::Resolved);
        set.evaluate(2.0, |_| Some(20.0));
        assert_eq!(phase(&set), Phase::Firing, "resolved re-arms on breach");
    }

    #[test]
    fn missing_series_counts_as_clear() {
        let set = AlertSet::new(vec![rule(0.0)]);
        set.evaluate(0.0, |_| Some(20.0));
        assert_eq!(phase(&set), Phase::Firing);
        set.evaluate(1.0, |_| None);
        assert_eq!(phase(&set), Phase::Resolved, "no data resolves");
        assert_eq!(set.states()[0].last_value, None);
    }

    #[test]
    fn firing_gauge_tracks_phase() {
        let reg = Registry::new();
        let set = AlertSet::new(vec![rule(0.0)]);
        set.export_to(&reg);
        let g = reg.gauge("alerts_firing{rule=\"hot\"}");
        assert_eq!(g.get(), 0);
        set.evaluate(0.0, |_| Some(20.0));
        assert_eq!(g.get(), 1);
        set.evaluate(1.0, |_| Some(1.0));
        assert_eq!(g.get(), 0);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP alerts_firing"), "{text}");
    }

    #[test]
    fn comparators() {
        assert!(Cmp::Gt.holds(2.0, 1.0) && !Cmp::Gt.holds(1.0, 1.0));
        assert!(Cmp::Ge.holds(1.0, 1.0));
        assert!(Cmp::Lt.holds(0.5, 1.0) && !Cmp::Lt.holds(1.0, 1.0));
        assert!(Cmp::Le.holds(1.0, 1.0));
        for c in [Cmp::Gt, Cmp::Ge, Cmp::Lt, Cmp::Le] {
            assert_eq!(Cmp::parse(c.symbol()), Some(c));
        }
        assert_eq!(Cmp::parse("=="), None);
    }
}
