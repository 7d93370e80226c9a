//! Post-processing over a snapshot's span tree: self-time vs
//! child-time and a collapsed-stack (folded) export for flamegraph
//! tooling.
//!
//! All functions are pure over `&[SpanRecord]` so they can run on a
//! live [`Snapshot`](crate::Snapshot) or on spans re-parsed from a
//! trace file. Conventions:
//!
//! * **Self-time** of a span is its duration minus the summed
//!   durations of its *direct* children (clamped at zero — integer
//!   microsecond rounding can make children sum slightly past the
//!   parent). Summing self-times over a tree telescopes back to the
//!   root's duration, up to that rounding.
//! * **Folded stacks** are `root;child;leaf weight` lines (the format
//!   `inferno`/`flamegraph.pl` consume), one line per distinct span
//!   name path, weighted by aggregate self-time in microseconds.
//!   Zero-weight paths are dropped; lines are sorted for stable
//!   output.

use std::collections::HashMap;

use crate::SpanRecord;

/// Self-time of every span, index-aligned with `spans`: duration
/// minus the summed durations of direct children, clamped at zero.
#[must_use]
pub fn self_times_us(spans: &[SpanRecord]) -> Vec<u64> {
    let index = id_index(spans);
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.dur_us).collect();
    for s in spans {
        if let Some(&pi) = s.parent.as_ref().and_then(|p| index.get(p)) {
            selfs[pi] = selfs[pi].saturating_sub(s.dur_us);
        }
    }
    selfs
}

/// Collapsed-stack (folded) rendering of the span tree: one
/// `name;name;name weight\n` line per distinct root-to-span name
/// path, weighted by aggregate self-time in microseconds. Lines are
/// sorted; zero-weight paths are omitted. The sum of all weights
/// equals the sum of all self-times with nonzero-weight paths.
#[must_use]
pub fn folded_stacks(spans: &[SpanRecord]) -> String {
    let index = id_index(spans);
    let selfs = self_times_us(spans);
    let mut lines: Vec<(String, u64)> = Vec::new();
    let mut weights: HashMap<String, u64> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if selfs[i] == 0 {
            continue;
        }
        let mut names: Vec<&str> = vec![&s.name];
        let mut cur = s;
        // Depth cap guards against a malformed (cyclic) parent chain
        // in externally-supplied records.
        for _ in 0..spans.len() {
            let Some(&pi) = cur.parent.as_ref().and_then(|p| index.get(p)) else {
                break;
            };
            cur = &spans[pi];
            names.push(&cur.name);
        }
        names.reverse();
        *weights.entry(names.join(";")).or_insert(0) += selfs[i];
    }
    lines.extend(weights);
    lines.sort();
    let mut out = String::new();
    for (stack, w) in &lines {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&w.to_string());
        out.push('\n');
    }
    out
}

fn id_index(spans: &[SpanRecord]) -> HashMap<u64, usize> {
    spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect()
}

impl crate::Snapshot {
    /// [`folded_stacks`] over this snapshot's spans.
    #[must_use]
    pub fn folded_stacks(&self) -> String {
        folded_stacks(&self.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            thread: 0,
            start_us,
            dur_us,
            attrs: Vec::new(),
            alloc: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "mid", 10, 60),
            span(3, Some(2), "leaf", 20, 40),
        ];
        assert_eq!(self_times_us(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn self_time_clamps_rounding_overshoot() {
        let spans = vec![
            span(1, None, "root", 0, 10),
            span(2, Some(1), "a", 0, 6),
            span(3, Some(1), "b", 6, 6),
        ];
        assert_eq!(self_times_us(&spans)[0], 0, "children overshoot clamps to zero");
    }

    #[test]
    fn folded_stacks_weights_sum_to_root_duration() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 0, 30),
            span(3, Some(1), "b", 30, 50),
            span(4, Some(3), "b.inner", 35, 20),
        ];
        let folded = folded_stacks(&spans);
        let mut total = 0u64;
        for line in folded.lines() {
            let (stack, w) = line.rsplit_once(' ').expect("weight separator");
            assert!(stack.starts_with("root"));
            total += w.parse::<u64>().expect("numeric weight");
        }
        assert_eq!(total, 100, "weights telescope to the root duration");
        assert!(folded.contains("root;b;b.inner 20\n"));
        assert!(folded.contains("root;a 30\n"));
    }

    #[test]
    fn folded_stacks_aggregate_repeated_paths_and_skip_zero() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "step", 0, 40),
            span(3, Some(1), "step", 40, 60),
        ];
        let folded = folded_stacks(&spans);
        assert_eq!(folded, "root;step 100\n", "zero-self root dropped, steps merged");
    }
}
