//! Declarative alert rules evaluated against the sliding-window store.
//!
//! ## Rule grammar
//!
//! One rule per `--alert` entry (comma-separated) or rules-file line
//! (`#` starts a comment):
//!
//! ```text
//! name:metric OP threshold[@for]
//! ```
//!
//! - `name` — rule identifier, `[A-Za-z0-9_.-]+`.
//! - `metric` — a registry metric name as sampled into the window
//!   store (counters, gauges, or a histogram's derived `.count`/`.p99`
//!   series), optionally wrapped in `rate(...)` or `burn(...)` to
//!   select the rule kind.
//! - `OP` — one of `>`, `>=`, `<`, `<=`.
//! - `threshold` — an f64 literal.
//! - `@for` — number of consecutive satisfying samples required before
//!   the rule fires (default 1).
//!
//! Examples: `cap:sim.cluster.power_watts>150000@5`,
//! `stall:rate(sim.monitor.samples)<=0@3`,
//! `hot:burn(sim.cluster.nodes_busy)>=2@4`.
//!
//! ## Kinds
//!
//! - [`AlertKind::Threshold`] compares the newest sample.
//! - [`AlertKind::RateOfChange`] (`rate(...)`) compares the difference
//!   between the two newest samples — for counters this is the
//!   per-sample increment.
//! - [`AlertKind::BurnRate`] (`burn(...)`) compares the mean of the
//!   newest `for` samples against the mean of the whole window
//!   (short-window / long-window ratio, the classic SLO burn-rate
//!   shape); undefined (never satisfied) while the long-window mean
//!   is zero.
//!
//! ## State machine
//!
//! `Inactive → Pending → Firing → Resolved → Inactive`. A satisfied
//! condition increments a consecutive-sample counter; at `for` the
//! rule transitions to Firing (before that it is Pending). The first
//! unsatisfied sample moves Firing to Resolved — visible for exactly
//! one evaluation — and anything else back to Inactive. Every
//! evaluation also publishes the `obs.alerts.*` meta-metric family
//! into the registry it is handed.
//!
//! ## Exit codes
//!
//! `hpcpower alerts eval` exits **4** when any rule fired during the
//! evaluation (state Firing at the end, or a recorded
//! firing-transition earlier), 0 when quiet, 2 on usage errors — see
//! the CLI.

use std::fmt;

use crate::registry::Registry;
use crate::snapshot::{escape_json, json_f64};
use crate::store::WindowStore;

/// How a rule interprets its metric's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Compare the newest sample against the threshold.
    Threshold,
    /// Compare the newest minus the previous sample.
    RateOfChange,
    /// Compare mean(newest `for` samples) / mean(whole window).
    BurnRate,
}

impl AlertKind {
    /// Stable lower-case name used in JSON and text renderings.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertKind::Threshold => "threshold",
            AlertKind::RateOfChange => "rate_of_change",
            AlertKind::BurnRate => "burn_rate",
        }
    }
}

/// Comparison operator of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertOp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
}

impl AlertOp {
    /// Whether `value OP threshold` holds.
    pub fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            AlertOp::Gt => value > threshold,
            AlertOp::Ge => value >= threshold,
            AlertOp::Lt => value < threshold,
            AlertOp::Le => value <= threshold,
        }
    }

    /// The operator's source spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertOp::Gt => ">",
            AlertOp::Ge => ">=",
            AlertOp::Lt => "<",
            AlertOp::Le => "<=",
        }
    }
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule identifier (unique within an engine).
    pub name: String,
    /// Window-store metric the rule watches.
    pub metric: String,
    /// Comparison operator.
    pub op: AlertOp,
    /// Threshold the derived value is compared against.
    pub threshold: f64,
    /// Consecutive satisfying samples required to fire (>= 1).
    pub for_samples: usize,
    /// How the watched window is reduced to one value.
    pub kind: AlertKind,
}

fn valid_rule_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl AlertRule {
    /// Parses one rule from the `name:metric OP value[@for]` grammar.
    pub fn parse(input: &str) -> Result<AlertRule, String> {
        let s = input.trim();
        let err = |msg: &str| format!("alert rule {input:?}: {msg}");
        let (name, rest) = s
            .split_once(':')
            .ok_or_else(|| err("missing ':' between rule name and expression"))?;
        let name = name.trim();
        if !valid_rule_name(name) {
            return Err(err("rule name must be non-empty [A-Za-z0-9_.-]+"));
        }
        // Two-character operators first so ">=" is not read as ">".
        let (op_idx, op, op_len) = ["<=", ">=", "<", ">"]
            .iter()
            .filter_map(|sym| rest.find(sym).map(|i| (i, *sym)))
            .min_by_key(|&(i, sym)| (i, sym.len() == 1))
            .map(|(i, sym)| {
                let op = match sym {
                    ">" => AlertOp::Gt,
                    ">=" => AlertOp::Ge,
                    "<" => AlertOp::Lt,
                    _ => AlertOp::Le,
                };
                (i, op, sym.len())
            })
            .ok_or_else(|| err("missing comparison operator (one of > >= < <=)"))?;
        let metric_part = rest[..op_idx].trim();
        let after = rest[op_idx + op_len..].trim();
        let (threshold_str, for_str) = match after.split_once('@') {
            Some((t, f)) => (t.trim(), f.trim()),
            None => (after, "1"),
        };
        let threshold: f64 = threshold_str
            .parse()
            .map_err(|_| err("threshold is not a number"))?;
        let for_samples: usize = for_str
            .parse()
            .map_err(|_| err("'@for' sample count is not an integer"))?;
        if for_samples == 0 {
            return Err(err("'@for' sample count must be >= 1"));
        }
        let (kind, metric) = if let Some(inner) = metric_part
            .strip_prefix("rate(")
            .and_then(|m| m.strip_suffix(')'))
        {
            (AlertKind::RateOfChange, inner.trim())
        } else if let Some(inner) = metric_part
            .strip_prefix("burn(")
            .and_then(|m| m.strip_suffix(')'))
        {
            (AlertKind::BurnRate, inner.trim())
        } else {
            (AlertKind::Threshold, metric_part)
        };
        if metric.is_empty() {
            return Err(err("metric name is empty"));
        }
        Ok(AlertRule {
            name: name.to_string(),
            metric: metric.to_string(),
            op,
            threshold,
            for_samples,
            kind,
        })
    }
}

impl fmt::Display for AlertRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let metric = match self.kind {
            AlertKind::Threshold => self.metric.clone(),
            AlertKind::RateOfChange => format!("rate({})", self.metric),
            AlertKind::BurnRate => format!("burn({})", self.metric),
        };
        write!(
            f,
            "{}:{}{}{}@{}",
            self.name,
            metric,
            self.op.as_str(),
            self.threshold,
            self.for_samples
        )
    }
}

/// Parses a rules document: one rule per line, blank lines and `#`
/// comments ignored.
pub fn parse_rules(text: &str) -> Result<Vec<AlertRule>, String> {
    let mut rules = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let rule = AlertRule::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        if rules.iter().any(|r: &AlertRule| r.name == rule.name) {
            return Err(format!("line {}: duplicate rule name {:?}", idx + 1, rule.name));
        }
        rules.push(rule);
    }
    Ok(rules)
}

/// Parses a comma/semicolon-separated `--alert` flag value.
pub fn parse_rule_list(text: &str) -> Result<Vec<AlertRule>, String> {
    text.split([',', ';'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(AlertRule::parse)
        .collect()
}

/// Lifecycle state of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition not satisfied.
    Inactive,
    /// Condition satisfied, but for fewer than `for` samples.
    Pending,
    /// Condition satisfied for at least `for` consecutive samples.
    Firing,
    /// Was firing; condition just stopped being satisfied.
    Resolved,
}

impl AlertState {
    /// Stable lower-case name used in JSON and text renderings.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }

    /// Numeric code published as the rule's state gauge
    /// (`obs.alerts.rule.<name>`).
    pub fn code(self) -> f64 {
        match self {
            AlertState::Inactive => 0.0,
            AlertState::Pending => 1.0,
            AlertState::Firing => 2.0,
            AlertState::Resolved => 3.0,
        }
    }
}

/// Mutable evaluation status of one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleStatus {
    /// Current lifecycle state.
    pub state: AlertState,
    /// Value the rule's kind derived at the last evaluation, if the
    /// window held enough samples to define one.
    pub value: Option<f64>,
    /// Consecutive satisfying samples seen so far.
    pub consecutive: usize,
    /// Times the rule has transitioned into Firing.
    pub fired_count: u64,
}

impl Default for RuleStatus {
    fn default() -> Self {
        Self {
            state: AlertState::Inactive,
            value: None,
            consecutive: 0,
            fired_count: 0,
        }
    }
}

/// Evaluates a fixed rule set against a window store, tracking state.
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    status: Vec<RuleStatus>,
    evals: u64,
}

impl AlertEngine {
    /// Builds an engine over a fixed rule set (all rules Inactive).
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let status = vec![RuleStatus::default(); rules.len()];
        Self {
            rules,
            status,
            evals: 0,
        }
    }

    /// Whether the engine has no rules at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The engine's rules, in declaration order.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// A rule's current status, by rule name.
    pub fn status(&self, name: &str) -> Option<&RuleStatus> {
        self.rules
            .iter()
            .position(|r| r.name == name)
            .map(|i| &self.status[i])
    }

    /// `(firing, pending)` rule counts right now.
    pub(crate) fn status_counts(&self) -> (usize, usize) {
        let firing = self
            .status
            .iter()
            .filter(|s| s.state == AlertState::Firing)
            .count();
        let pending = self
            .status
            .iter()
            .filter(|s| s.state == AlertState::Pending)
            .count();
        (firing, pending)
    }

    /// Whether any rule is currently Firing.
    pub fn any_firing(&self) -> bool {
        self.status.iter().any(|s| s.state == AlertState::Firing)
    }

    /// Whether any rule fired at any point since construction.
    pub fn ever_fired(&self) -> bool {
        self.status.iter().any(|s| s.fired_count > 0)
    }

    /// Evaluates every rule against the store's current windows and
    /// advances the state machine one step. When a registry is given,
    /// publishes the `obs.alerts.*` meta-metrics into it.
    pub fn evaluate(&mut self, store: &WindowStore, registry: Option<&Registry>) {
        self.evals += 1;
        let mut transitions = 0u64;
        for (rule, st) in self.rules.iter().zip(&mut self.status) {
            let series = store.values(&rule.metric);
            let value = derive_value(rule, &series);
            st.value = value;
            let satisfied = value.is_some_and(|v| rule.op.holds(v, rule.threshold));
            let before = st.state;
            if satisfied {
                st.consecutive += 1;
                if st.consecutive >= rule.for_samples {
                    st.state = AlertState::Firing;
                    if before != AlertState::Firing {
                        st.fired_count += 1;
                    }
                } else {
                    st.state = AlertState::Pending;
                }
            } else {
                st.consecutive = 0;
                st.state = match before {
                    AlertState::Firing => AlertState::Resolved,
                    _ => AlertState::Inactive,
                };
            }
            if st.state != before {
                transitions += 1;
            }
        }
        if let Some(reg) = registry {
            reg.counter_add("obs.alerts.evals", 1);
            reg.counter_add("obs.alerts.transitions", transitions);
            let (firing, pending) = self.status_counts();
            reg.gauge_set("obs.alerts.firing", firing as f64);
            reg.gauge_set("obs.alerts.pending", pending as f64);
            for (rule, st) in self.rules.iter().zip(&self.status) {
                reg.gauge_set(&format!("obs.alerts.rule.{}", rule.name), st.state.code());
            }
        }
    }

    /// Renders the engine's state as one JSON document (the `/alerts`
    /// endpoint body).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let (firing, pending) = self.status_counts();
        let mut out = format!(
            "{{\n  \"firing\": {firing},\n  \"pending\": {pending},\n  \"evals\": {},\n  \"rules\": [",
            self.evals
        );
        for (i, (rule, st)) in self.rules.iter().zip(&self.status).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let value = match st.value {
                Some(v) => json_f64(v),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\":\"{}\",\"metric\":\"{}\",\"kind\":\"{}\",\
                 \"op\":\"{}\",\"threshold\":{},\"for_samples\":{},\
                 \"state\":\"{}\",\"value\":{},\"consecutive\":{},\"fired_count\":{}}}",
                escape_json(&rule.name),
                escape_json(&rule.metric),
                rule.kind.as_str(),
                rule.op.as_str(),
                json_f64(rule.threshold),
                rule.for_samples,
                st.state.as_str(),
                value,
                st.consecutive,
                st.fired_count
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders one status line per rule, for CLI summaries.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (rule, st) in self.rules.iter().zip(&self.status) {
            let value = match st.value {
                Some(v) => format!("{v:.4}"),
                None => "n/a".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<8} {} ({}({}) {} {} for {}) value={} fired={}",
                st.state.as_str(),
                rule.name,
                rule.kind.as_str(),
                rule.metric,
                rule.op.as_str(),
                rule.threshold,
                rule.for_samples,
                value,
                st.fired_count
            );
        }
        out
    }
}

fn mean(points: &[crate::store::SamplePoint]) -> f64 {
    points.iter().map(|p| p.value).sum::<f64>() / points.len() as f64
}

fn derive_value(rule: &AlertRule, series: &[crate::store::SamplePoint]) -> Option<f64> {
    match rule.kind {
        AlertKind::Threshold => series.last().map(|p| p.value),
        AlertKind::RateOfChange => {
            let n = series.len();
            (n >= 2).then(|| series[n - 1].value - series[n - 2].value)
        }
        AlertKind::BurnRate => {
            if series.is_empty() {
                return None;
            }
            let short_len = rule.for_samples.min(series.len());
            let short = mean(&series[series.len() - short_len..]);
            let long = mean(series);
            (long.abs() > f64::EPSILON).then(|| short / long)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;

    fn store_with(name: &str, values: &[f64]) -> WindowStore {
        let s = WindowStore::with_capacity(64);
        for (i, v) in values.iter().enumerate() {
            let snap = Snapshot {
                gauges: vec![(name.to_string(), *v)],
                ..Default::default()
            };
            s.ingest(&snap, i as u64);
        }
        s
    }

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let r = AlertRule::parse("cap:sim.cluster.power_watts>150000@5").unwrap();
        assert_eq!(r.name, "cap");
        assert_eq!(r.metric, "sim.cluster.power_watts");
        assert_eq!(r.op, AlertOp::Gt);
        assert_eq!(r.threshold, 150000.0);
        assert_eq!(r.for_samples, 5);
        assert_eq!(r.kind, AlertKind::Threshold);

        let r = AlertRule::parse("stall:rate(sim.monitor.samples)<=0").unwrap();
        assert_eq!(r.kind, AlertKind::RateOfChange);
        assert_eq!(r.metric, "sim.monitor.samples");
        assert_eq!(r.op, AlertOp::Le);
        assert_eq!(r.for_samples, 1, "@for defaults to 1");

        let r = AlertRule::parse("hot:burn(x.y)>=2.5@4").unwrap();
        assert_eq!(r.kind, AlertKind::BurnRate);
        assert_eq!(r.op, AlertOp::Ge);
        assert_eq!(r.threshold, 2.5);
        // Display round-trips through parse.
        assert_eq!(AlertRule::parse(&r.to_string()).unwrap(), r);
    }

    #[test]
    fn parse_rejects_malformed_rules() {
        for bad in [
            "",
            "noexpr",
            "a:metric",
            "a:metric>abc",
            "a:>1",
            "a:m>1@0",
            "a:m>1@x",
            "bad name:m>1",
            "a:rate()>1",
        ] {
            assert!(AlertRule::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rules_file_skips_comments_and_rejects_duplicates() {
        let rules = parse_rules("# header\n\na:m>1\nb:rate(m)<0@2\n").unwrap();
        assert_eq!(rules.len(), 2);
        assert!(parse_rules("a:m>1\na:m<2").unwrap_err().contains("duplicate"));
        assert!(parse_rules("a:m>>1").is_err());
    }

    #[test]
    fn flag_list_splits_on_commas_and_semicolons() {
        let rules = parse_rule_list("a:m>1, b:m<2@3; c:burn(m)>=1").unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[2].kind, AlertKind::BurnRate);
    }

    #[test]
    fn threshold_walks_pending_firing_resolved_inactive() {
        let rule = AlertRule::parse("hi:g>10@2").unwrap();
        let mut eng = AlertEngine::new(vec![rule]);
        let reg = Registry::new();

        let s = store_with("g", &[20.0]);
        eng.evaluate(&s, Some(&reg));
        assert_eq!(eng.status("hi").unwrap().state, AlertState::Pending);
        assert!(!eng.any_firing());

        let s = store_with("g", &[20.0, 21.0]);
        // Keep the engine's consecutive counter: evaluate again on a
        // store whose newest sample still satisfies the condition.
        eng.evaluate(&s, Some(&reg));
        let st = eng.status("hi").unwrap();
        assert_eq!(st.state, AlertState::Firing);
        assert_eq!(st.fired_count, 1);
        assert!(eng.any_firing());
        assert_eq!(reg.snapshot().gauge("obs.alerts.firing"), Some(1.0));
        assert_eq!(reg.snapshot().gauge("obs.alerts.rule.hi"), Some(2.0));

        let s = store_with("g", &[20.0, 21.0, 5.0]);
        eng.evaluate(&s, Some(&reg));
        assert_eq!(eng.status("hi").unwrap().state, AlertState::Resolved);
        assert!(!eng.any_firing());
        assert!(eng.ever_fired());

        eng.evaluate(&s, Some(&reg));
        assert_eq!(eng.status("hi").unwrap().state, AlertState::Inactive);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("obs.alerts.evals"), Some(4));
        // pending -> firing -> resolved -> inactive: four transitions.
        assert_eq!(snap.counter("obs.alerts.transitions"), Some(4));
    }

    #[test]
    fn rate_rule_needs_two_samples_and_sees_increments() {
        let rule = AlertRule::parse("inc:rate(c)>5").unwrap();
        let mut eng = AlertEngine::new(vec![rule]);
        eng.evaluate(&store_with("c", &[100.0]), None);
        let st = eng.status("inc").unwrap();
        assert_eq!(st.state, AlertState::Inactive);
        assert_eq!(st.value, None, "one sample defines no rate");

        eng.evaluate(&store_with("c", &[100.0, 110.0]), None);
        let st = eng.status("inc").unwrap();
        assert_eq!(st.value, Some(10.0));
        assert_eq!(st.state, AlertState::Firing);
    }

    #[test]
    fn burn_rule_compares_short_window_to_whole_window() {
        let rule = AlertRule::parse("burn:burn(g)>1.5@2").unwrap();
        let mut eng = AlertEngine::new(vec![rule]);
        // Window mean = (1+1+1+1+10+10)/6 = 4; short mean = 10 -> 2.5x.
        eng.evaluate(&store_with("g", &[1.0, 1.0, 1.0, 1.0, 10.0, 10.0]), None);
        let st = eng.status("burn").unwrap();
        assert_eq!(st.value, Some(2.5));
        assert_eq!(st.state, AlertState::Pending, "needs 2 consecutive");
        eng.evaluate(&store_with("g", &[1.0, 1.0, 1.0, 1.0, 10.0, 10.0]), None);
        assert_eq!(eng.status("burn").unwrap().state, AlertState::Firing);

        // All-zero window: the ratio is undefined, never satisfied.
        let mut eng = AlertEngine::new(vec![AlertRule::parse("z:burn(g)>0@1").unwrap()]);
        eng.evaluate(&store_with("g", &[0.0, 0.0]), None);
        assert_eq!(eng.status("z").unwrap().value, None);
        assert_eq!(eng.status("z").unwrap().state, AlertState::Inactive);
    }

    #[test]
    fn missing_metric_never_satisfies() {
        let mut eng = AlertEngine::new(vec![AlertRule::parse("m:absent>0").unwrap()]);
        eng.evaluate(&store_with("g", &[1.0]), None);
        assert_eq!(eng.status("m").unwrap().state, AlertState::Inactive);
        assert_eq!(eng.status("m").unwrap().value, None);
    }

    #[test]
    fn json_and_text_renderings_mention_every_rule() {
        let rules = parse_rules("a:g>0\nb:rate(g)<100@2").unwrap();
        let mut eng = AlertEngine::new(rules);
        eng.evaluate(&store_with("g", &[5.0]), None);
        let json = eng.to_json();
        let v = serde_json::parse(&json).expect("valid alerts JSON");
        let obj = v.as_object().unwrap();
        let rules_v = serde_json::find(obj, "rules").unwrap().as_array().unwrap();
        assert_eq!(rules_v.len(), 2);
        assert_eq!(
            serde_json::find(obj, "firing").unwrap().as_u64(),
            Some(1),
            "a:g>0 fires immediately"
        );
        let text = eng.render_text();
        assert!(text.contains("firing") && text.contains('a') && text.contains('b'));
    }
}
