//! The metric ledger of one run: every number the harness measured,
//! with its unit and (for end-to-end metrics) the bound by which it
//! may worsen. Rendered three ways — `name value unit` lines, the
//! result file `compare.sh` reads, and the one-line contract object
//! whose metric list comes from `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::measure::{summarize, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far an end-to-end metric's median may worsen before
/// `compare.sh` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline's median.
    Rel(f64),
    /// Absolute, in the metric's own unit (fractions that may be 0).
    Abs(f64),
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// `Some` marks an end-to-end metric; per-layer metrics carry no
    /// bound.
    pub judged: Option<(Better, Bound)>,
    /// Simulated outcomes and event counts: must repeat bit for bit.
    pub exact: bool,
    /// The sample the value is a statistic of, summarized.
    pub spread: Option<Summary>,
}

#[derive(Debug, Default)]
pub struct Ledger {
    metrics: BTreeMap<String, Metric>,
}

impl Ledger {
    fn put(&mut self, name: &str, metric: Metric) {
        assert!(
            metric.value.is_finite(),
            "metric {name} is not finite: {}",
            metric.value
        );
        let clash = self.metrics.insert(name.to_string(), metric);
        assert!(clash.is_none(), "metric {name} recorded twice");
    }

    /// End-to-end host-side metric (noisy).
    pub fn end_to_end(
        &mut self,
        name: &str,
        unit: &'static str,
        better: Better,
        bound: Bound,
        value: f64,
    ) {
        let judged = Some((better, bound));
        self.put(
            name,
            Metric {
                value,
                unit,
                judged,
                exact: false,
                spread: None,
            },
        );
    }

    /// End-to-end timing, lower is better: `value` is the sum of the
    /// per-part minima over the repetitions whose whole times are
    /// `walls`; their median and quartiles are stored beside it.
    pub fn end_to_end_timing(
        &mut self,
        name: &str,
        unit: &'static str,
        bound: f64,
        value: f64,
        walls: &[f64],
    ) {
        let judged = Some((Better::Lower, Bound::Rel(bound)));
        self.put(
            name,
            Metric {
                value,
                unit,
                judged,
                exact: false,
                spread: Some(summarize(walls)),
            },
        );
    }

    /// End-to-end simulated outcome: deterministic for a seed.
    pub fn end_to_end_sim(&mut self, name: &str, unit: &'static str, bound: Bound, value: f64) {
        let judged = Some((Better::Lower, bound));
        self.put(
            name,
            Metric {
                value,
                unit,
                judged,
                exact: true,
                spread: None,
            },
        );
    }

    /// Per-layer host-side metric.
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.put(
            name,
            Metric {
                value,
                unit,
                judged: None,
                exact: false,
                spread: None,
            },
        );
    }

    /// Per-layer count or ratio of counts: must repeat bit for bit.
    pub fn layer_exact(&mut self, name: &str, unit: &'static str, value: f64) {
        self.put(
            name,
            Metric {
                value,
                unit,
                judged: None,
                exact: true,
                spread: None,
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// `name value unit`, one metric a line.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            writeln!(out, "{name} {} {}", m.value, m.unit).expect("write to string");
        }
        out
    }

    /// The `"metrics"` object of the result file.
    pub fn json(&self) -> String {
        let entries: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let mut e = format!("\"{name}\":{{\"value\":{},\"unit\":\"{}\"", m.value, m.unit);
                match m.judged {
                    Some((better, bound)) => {
                        let better = match better {
                            Better::Lower => "lower",
                            Better::Higher => "higher",
                        };
                        let (kind, by) = match bound {
                            Bound::Rel(by) => ("rel", by),
                            Bound::Abs(by) => ("abs", by),
                        };
                        write!(
                            e,
                            ",\"kind\":\"end_to_end\",\"better\":\"{better}\",\
                             \"bound\":{by},\"bound_kind\":\"{kind}\""
                        )
                    }
                    None => write!(e, ",\"kind\":\"per_layer\""),
                }
                .expect("write to string");
                write!(e, ",\"exact\":{}", m.exact).expect("write to string");
                if let Some(s) = m.spread {
                    write!(
                        e,
                        ",\"samples\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{}",
                        s.count, s.min, s.q1, s.median, s.q3
                    )
                    .expect("write to string");
                }
                e.push('}');
                e
            })
            .collect();
        format!("{{{}}}", entries.join(","))
    }
}
