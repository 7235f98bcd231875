//! How a run's report renders itself: an aligned text table for people
//! and a JSON object for programs, both built from the report's own
//! fields and carrying the same figures, each once.
//!
//! A [`RunReport`] renders its outcome, its census total, the frames of
//! every directed link (counted from the transport log — the one figure
//! its account lacks), the §6 interaction count of every mediator
//! partner ([`Transport::interactions_of`](crate::Transport::interactions_of),
//! in first-use order), its account (`metrics`, verbatim: frame, byte and
//! retry totals, per-link bytes, fault counts, the census and the result
//! rows) and both audited views.  A [`PlanReport`] renders its result
//! rows, its most severe node outcome, one row per node, the per-key
//! sums of its nodes' sections, and each node's views.
//!
//! Phase wall-clock is not part of a report: it comes from the run's
//! spans, aggregated by `secmed_obs::profile`.

use std::collections::BTreeMap;

use secmed_obs::Json;

use crate::plan::PlanReport;
use crate::protocol::{RunOutcome, RunReport};
use crate::transport::PartyId;

impl RunReport {
    /// The report as an aligned text table.  The result rows and the
    /// retries are the account's `run.result_rows` and
    /// `transport.retries`.
    pub fn render_table(&self) -> String {
        let mut out = match &self.outcome {
            RunOutcome::Degraded { details, .. } => {
                format!("outcome: degraded ({})\n", details.join("; "))
            }
            RunOutcome::Aborted { error, .. } => format!("outcome: aborted ({error})\n"),
            other => format!("outcome: {}\n", other.key()),
        };
        out.push_str(&format!("primitive invocations: {}\n", census_total(self)));
        let (links, partners) = (link_frames(self), interactions(self));
        push_sections(&mut out, &sections(&links, &partners, &self.metrics));
        out.push_str("\nleakage audit:\n");
        for line in views(self) {
            out.push_str(&format!("  {line}\n"));
        }
        out
    }

    /// The report as a JSON object (the outcome as its key).
    pub fn to_json(&self) -> Json {
        let (links, partners) = (link_frames(self), interactions(self));
        let mut fields = vec![
            ("outcome".to_string(), Json::from(self.outcome.key())),
            (
                "primitive_invocations".to_string(),
                Json::UInt(census_total(self)),
            ),
        ];
        fields.extend(json_sections(&sections(&links, &partners, &self.metrics)));
        fields.push((
            "leakage".to_string(),
            Json::arr(views(self).into_iter().map(Json::from)),
        ));
        Json::Object(fields)
    }
}

impl PlanReport {
    /// The plan as an aligned text table: the node rows, then the
    /// per-key sums of the nodes' sections, then each node's views.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "result rows: {}\noutcome: {}\nprimitive invocations: {}\n\n",
            self.result.len(),
            self.outcome(),
            self.nodes
                .iter()
                .map(|n| census_total(&n.report))
                .sum::<u64>()
        );
        let rows: Vec<[String; 6]> = self
            .nodes
            .iter()
            .map(|n| {
                [
                    n.label.clone(),
                    n.protocol.key().to_string(),
                    n.predicted.total().to_string(),
                    n.observed.total().to_string(),
                    n.divergence.max_ppm.to_string(),
                    n.report.result.len().to_string(),
                ]
            })
            .collect();
        push_table(
            &mut out,
            &[
                "plan node",
                "protocol",
                "predicted",
                "observed",
                "ppm",
                "rows",
            ],
            &rows,
        );
        let (links, partners, metrics) = self.summed();
        push_sections(&mut out, &sections(&links, &partners, &metrics));
        out.push_str("\nleakage audit:\n");
        for n in &self.nodes {
            for line in views(&n.report) {
                out.push_str(&format!("  {}: {line}\n", n.label));
            }
        }
        out
    }

    /// The plan as a JSON object; each node carries its own views.
    pub fn to_json(&self) -> Json {
        let nodes = self.nodes.iter().map(|n| {
            Json::obj([
                ("label", Json::from(n.label.clone())),
                ("protocol", Json::from(n.protocol.key())),
                ("predicted_ops", Json::UInt(n.predicted.total())),
                ("observed_ops", Json::UInt(n.observed.total())),
                ("divergence_ppm", Json::UInt(n.divergence.max_ppm)),
                ("result_rows", Json::from(n.report.result.len())),
                (
                    "leakage",
                    Json::arr(views(&n.report).into_iter().map(Json::from)),
                ),
            ])
        });
        let mut fields = vec![
            ("result_rows".to_string(), Json::from(self.result.len())),
            ("outcome".to_string(), Json::from(self.outcome())),
            (
                "primitive_invocations".to_string(),
                Json::UInt(self.nodes.iter().map(|n| census_total(&n.report)).sum()),
            ),
            ("nodes".to_string(), Json::arr(nodes)),
        ];
        let (links, partners, metrics) = self.summed();
        fields.extend(json_sections(&sections(&links, &partners, &metrics)));
        Json::Object(fields)
    }

    /// The nodes' link frames and interactions summed per key in
    /// first-use order, and their accounts summed per key, sorted.
    fn summed(&self) -> (Counts, Counts, Counts) {
        let (mut links, mut partners) = (Vec::new(), Vec::new());
        let mut metrics: BTreeMap<&str, u64> = BTreeMap::new();
        for n in &self.nodes {
            add_by_key(&mut links, link_frames(&n.report));
            add_by_key(&mut partners, interactions(&n.report));
            for (k, v) in &n.report.metrics {
                *metrics.entry(k).or_insert(0) += v;
            }
        }
        let metrics = metrics
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        (links, partners, metrics)
    }
}

/// Named counts, as an account holds them.
type Counts = Vec<(String, u64)>;

/// Primitive invocations across the whole census.
fn census_total(report: &RunReport) -> u64 {
    report.primitives.iter().map(|(_, n)| n).sum()
}

/// Frames per directed link (`from->to`, as the account names links),
/// in first-use order.
fn link_frames(report: &RunReport) -> Counts {
    let mut out = Vec::new();
    for e in report.transport.log() {
        add_by_key(&mut out, [(format!("{}->{}", e.from, e.to), 1)]);
    }
    out
}

/// The §6 interaction pattern: for every party that talked to the
/// mediator, in first-use order, its maximal send-runs ("the client has
/// to interact twice with the mediator").
fn interactions(report: &RunReport) -> Counts {
    let mut partners: Vec<&PartyId> = Vec::new();
    for e in report.transport.log() {
        for p in [&e.from, &e.to] {
            if *p != PartyId::Mediator && !partners.contains(&p) {
                partners.push(p);
            }
        }
    }
    partners
        .into_iter()
        .map(|p| (p.to_string(), report.transport.interactions_of(p) as u64))
        .collect()
}

/// The Table 1 views: the mediator's, then the client's.
fn views(report: &RunReport) -> [String; 2] {
    [
        format!("mediator: {}", report.mediator_view.describe()),
        format!("client: {}", report.client_view.describe()),
    ]
}

/// Adds `rows` into `acc` by key, appending new keys in first-use order.
fn add_by_key(acc: &mut Counts, rows: impl IntoIterator<Item = (String, u64)>) {
    for (k, v) in rows {
        match acc.iter_mut().find(|(ak, _)| *ak == k) {
            Some((_, av)) => *av += v,
            None => acc.push((k, v)),
        }
    }
}

/// One count section: its JSON key, its table header and its rows.
type Section<'a> = (&'static str, [&'static str; 2], &'a [(String, u64)]);

/// The count sections both reports render, in order.
fn sections<'a>(
    links: &'a [(String, u64)],
    partners: &'a [(String, u64)],
    metrics: &'a [(String, u64)],
) -> [Section<'a>; 3] {
    [
        ("link_frames", ["link", "frames"], links),
        (
            "interactions",
            ["mediator partner", "interactions"],
            partners,
        ),
        ("metrics", ["metric", "value"], metrics),
    ]
}

fn push_sections(out: &mut String, sections: &[Section<'_>]) {
    for (_, header, rows) in sections {
        if rows.is_empty() {
            continue;
        }
        out.push('\n');
        let rows: Vec<[String; 2]> = rows
            .iter()
            .map(|(k, v)| [k.clone(), v.to_string()])
            .collect();
        push_table(out, header, &rows);
    }
}

fn json_sections(sections: &[Section<'_>]) -> Vec<(String, Json)> {
    sections
        .iter()
        .map(|(key, _, rows)| {
            let counts = rows.iter().map(|(k, v)| (k.clone(), Json::UInt(*v)));
            (key.to_string(), Json::Object(counts.collect()))
        })
        .collect()
}

/// Appends an aligned table: left-aligned first column, right-aligned rest.
fn push_table<const N: usize>(out: &mut String, header: &[&str; N], rows: &[[String; N]]) {
    let mut widths: [usize; N] = [0; N];
    for (i, h) in header.iter().enumerate() {
        widths[i] = h.chars().count();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let emit = |out: &mut String, cells: &[String; N]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let pad = " ".repeat(widths[i].saturating_sub(cell.chars().count()));
            if i == 0 {
                out.push_str(cell);
                out.push_str(&pad);
            } else {
                out.push_str(&pad);
                out.push_str(cell);
            }
        }
        // Trim trailing padding on the last column.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    emit(out, &header.map(str::to_string));
    emit(out, &widths.map(|w| "-".repeat(w)));
    for row in rows {
        emit(out, row);
    }
}

#[cfg(test)]
mod tests {
    use super::push_table;

    #[test]
    fn tables_align_the_first_column_left_and_the_rest_right() {
        let mut out = String::new();
        let rows = [
            ["client->mediator".to_string(), "2".to_string()],
            ["a".to_string(), "12".to_string()],
        ];
        push_table(&mut out, &["link", "frames"], &rows);
        let want = [
            "link              frames",
            "----------------  ------",
            "client->mediator       2",
            "a                     12",
        ];
        assert_eq!(out.lines().collect::<Vec<_>>(), want);
    }
}
