//! `figures scorecard` — every paper-vs-measured claim, judged across
//! seeds instead of on one draw.
//!
//! `ROWS` names each claim of §6–§8 once: the figure, the claim, the
//! paper's value and an extractor over the `figN::run*` results. Every
//! seed runs each figure once (through `parallel_map`, one task per
//! seed), and each row prints the median, the `[min, max]`
//! order-statistic interval and how many seeds show the paper's sign.
//! With N seeds `[X₍₁₎, X₍N₎]` covers the true median with probability
//! `1 − 2·2⁻ᴺ` — 99.2 % at the N = 8 of [`SCORECARD_SEEDS`]. The
//! output is `tests/golden/scorecard.md`, embedded verbatim in
//! EXPERIMENTS.md. Fig. 7(b) is absent on purpose: its numbers are
//! wall-clock times, which are `benchmark/`'s `solver_scaling` to say.

use std::cmp::Ordering::{self, Equal, Greater, Less};
use std::fmt::Write as _;

use spotweb_sim::sweep::parallel_map;

use crate::{ablations, discussion, fig4, fig5, fig6, fig7, FIVE_DAYS_HOURS, ONE_WEEK_HOURS};

/// The seeds `figures scorecard` (and its golden) runs.
pub const SCORECARD_SEEDS: [u64; 8] = [1234, 20190622, 42, 7, 99, 4242, 2019, 65537];

/// Every figure run one seed contributes: Fig. 6(a) at H = 2 and 4,
/// Fig. 6(b) at 9 / 18 / 36 markets and H = 2, Fig. 7(a) at ±20 %,
/// the churn ablation at γ = 0 and 0.5.
struct Runs {
    fig4a: fig4::Fig4a,
    fig4bcd: fig4::Fig4bcd,
    fig5: fig5::Fig5,
    fig6a: fig6::Fig6a,
    fig6b: fig6::Fig6b,
    fig6b_vod: fig6::Fig6b,
    fig7a: fig7::Fig7a,
    churn: ablations::Ablation,
    /// §7: EC2-, GCP- and Azure-like rows, in that order.
    providers: discussion::Discussion,
}

impl Runs {
    /// The lengths are the ones the figure commands use.
    fn run(intervals: usize, seed: u64) -> Self {
        let fig6b =
            |workload| fig6::run_fig6b(workload, &fig6::FIG6B_MARKETS, &[2], intervals, seed);
        Runs {
            fig4a: fig4::run_fig4a(seed),
            fig4bcd: fig4::run_fig4bcd(seed),
            fig5: fig5::run(intervals.min(FIVE_DAYS_HOURS), seed),
            fig6a: fig6::run_fig6a(intervals, seed),
            fig6b: fig6b(fig6::Fig6bWorkload::Wikipedia),
            fig6b_vod: fig6b(fig6::Fig6bWorkload::Vod),
            fig7a: fig7::run_fig7a(&[0.2], intervals, seed),
            churn: ablations::churn(&[0.0, 0.5], intervals.min(ONE_WEEK_HOURS), seed),
            providers: discussion::run(intervals.min(ONE_WEEK_HOURS), seed),
        }
    }
}

struct Row {
    figure: &'static str,
    claim: &'static str,
    paper: &'static str,
    /// The sign the claim predicts, against 0 at `decimals` places.
    sign: Ordering,
    decimals: usize,
    /// The measured value, in percent.
    extract: fn(&Runs) -> f64,
}

/// Percent change of the churn ablation's `field` from γ = 0 to 0.5.
fn churn_change(r: &Runs, field: fn(&ablations::AblationRow) -> f64) -> f64 {
    100.0 * (field(&r.churn.rows[1]) / field(&r.churn.rows[0]) - 1.0)
}

#[rustfmt::skip]
const ROWS: [Row; 19] = [
    Row { figure: "Fig. 4(a)", claim: "requests dropped in the 10-min run, transiency-aware LB (%)",
          paper: "none", sign: Equal, decimals: 2,
          extract: |r| 100.0 * r.fig4a.spotweb.drop_fraction },
    Row { figure: "Fig. 4(a)", claim: "requests dropped in the 10-min run, vanilla LB (%)",
          paper: "85 % in the seconds after the revocation", sign: Greater, decimals: 2,
          extract: |r| 100.0 * r.fig4a.vanilla.drop_fraction },
    Row { figure: "Fig. 4(c)", claim: "max under-provisioning, baseline predictor (%)",
          paper: "16.1 %", sign: Greater, decimals: 1,
          extract: |r| 100.0 * r.fig4bcd.baseline.max_under },
    Row { figure: "Fig. 4(d)", claim: "max under-provisioning, SpotWeb predictor (%)",
          paper: "3.2 %", sign: Greater, decimals: 1,
          extract: |r| 100.0 * r.fig4bcd.spotweb.max_under },
    Row { figure: "Fig. 4(d)", claim: "under-provisioned steps, SpotWeb predictor (%)",
          paper: "~1 % (99 % CI)", sign: Greater, decimals: 1,
          extract: |r| 100.0 * r.fig4bcd.spotweb.under_fraction },
    Row { figure: "Fig. 5", claim: "savings, MPO vs constant portfolio (%)",
          paper: "> 0", sign: Greater, decimals: 1,
          extract: |r| 100.0 * (1.0 - r.fig5.mpo_cost / r.fig5.constant_cost) },
    Row { figure: "Fig. 6(a)", claim: "savings vs constant portfolio + autoscaler, H = 2 (%)",
          paper: "~37 %", sign: Greater, decimals: 1,
          extract: |r| 100.0 * r.fig6a.rows[0].savings },
    Row { figure: "Fig. 6(b)", claim: "savings vs ExoSphere-in-a-loop, 9 markets, H = 2 (%)",
          paper: "up to 50 %, rising with markets", sign: Greater, decimals: 1,
          extract: |r| 100.0 * r.fig6b.cells[0].savings },
    Row { figure: "Fig. 6(b)", claim: "savings vs ExoSphere-in-a-loop, 18 markets, H = 2 (%)",
          paper: "up to 50 %, rising with markets", sign: Greater, decimals: 1,
          extract: |r| 100.0 * r.fig6b.cells[1].savings },
    Row { figure: "Fig. 6(b)", claim: "savings vs ExoSphere-in-a-loop, 36 markets, H = 2 (%)",
          paper: "up to 50 %, rising with markets", sign: Greater, decimals: 1,
          extract: |r| 100.0 * r.fig6b.cells[2].savings },
    Row { figure: "Fig. 6(b)", claim: "savings vs ExoSphere-in-a-loop, VoD, 9 markets, H = 2 (%)",
          paper: "~25 %", sign: Greater, decimals: 1,
          extract: |r| 100.0 * r.fig6b_vod.cells[0].savings },
    Row { figure: "Fig. 7(a)", claim: "savings vs ExoSphere-in-a-loop at ±20 % forecast error (%)",
          paper: "> 0", sign: Greater, decimals: 1,
          extract: |r| 100.0 * r.fig7a.rows[0].savings },
    Row { figure: "§7", claim: "savings vs ExoSphere-in-a-loop, EC2-spot-like (%)",
          paper: "> 0", sign: Greater, decimals: 1,
          extract: |r| 100.0 * r.providers.rows[0].savings_vs_exosphere },
    Row { figure: "§7", claim: "savings vs ExoSphere-in-a-loop, GCP-preemptible-like (%)",
          paper: "≈ 0 (fixed prices)", sign: Equal, decimals: 1,
          extract: |r| 100.0 * r.providers.rows[1].savings_vs_exosphere },
    Row { figure: "§7", claim: "savings vs ExoSphere-in-a-loop, Azure-low-priority-like (%)",
          paper: "≈ 0 (fixed prices)", sign: Equal, decimals: 1,
          extract: |r| 100.0 * r.providers.rows[2].savings_vs_exosphere },
    Row { figure: "§7", claim: "SpotWeb requests dropped, worst of the three providers (%)",
          paper: "SLO kept", sign: Equal, decimals: 3,
          extract: |r| 100.0 * r.providers.rows.iter().map(|p| p.spotweb_drop_fraction).fold(f64::NAN, f64::max) },
    Row { figure: "§8", claim: "savings vs on-demand, EC2-spot-like (%)",
          paper: "up to 90 %", sign: Greater, decimals: 1,
          extract: |r| 100.0 * r.providers.rows[0].savings_vs_on_demand },
    Row { figure: "ablation", claim: "fleet churn, churn weight γ 0 → 0.5 (% change)",
          paper: "— (beyond the paper)", sign: Less, decimals: 1,
          extract: |r| churn_change(r, |row| row.mean_churn) },
    Row { figure: "ablation", claim: "cost, churn weight γ 0 → 0.5 (% change)",
          paper: "— (beyond the paper)", sign: Greater, decimals: 1,
          extract: |r| churn_change(r, |row| row.total_cost) },
];

/// One row's statistics over its seeds.
struct Stats {
    median: f64,
    min: f64,
    max: f64,
    /// Seeds whose value, rounded to `decimals`, has the claimed sign.
    with_sign: usize,
}

/// The statistics of `values`; an error names the first value that is
/// not a number.
fn stats(values: &[f64], sign: Ordering, decimals: usize) -> Result<Stats, String> {
    if let Some(i) = values.iter().position(|v| !v.is_finite()) {
        return Err(format!("measurement {i} is {}", values[i]));
    }
    if values.is_empty() {
        return Err("no measurements".to_string());
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let scale = 10f64.powi(decimals as i32);
    let with_sign = values
        .iter()
        .filter(|v| (*v * scale).round().partial_cmp(&0.0) == Some(sign))
        .count();
    Ok(Stats {
        median: (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
        min: sorted[0],
        max: sorted[n - 1],
        with_sign,
    })
}

/// Run every figure at each of `seeds` on up to `jobs` threads and
/// render the scorecard; `intervals` is the figure commands'
/// `--intervals`. The bytes do not depend on `jobs`.
pub fn render(seeds: &[u64], intervals: usize, jobs: usize) -> Result<String, String> {
    let runs = parallel_map(jobs, seeds.to_vec(), |_, seed| Runs::run(intervals, seed));
    let n = seeds.len();
    let seed_list: Vec<String> = seeds.iter().map(u64::to_string).collect();
    let mut out = format!(
        "Seeds {} (N = {n}); {intervals} hourly intervals (Fig. 5: {}; ablation and §7: {}; \
         Fig. 4: its fixed testbed runs). `[min, max]` covers the median with probability \
         1 − 2·2⁻ᴺ = {:.1} %. \"sign\" counts the seeds whose value, at the printed precision, \
         has the sign the claim predicts.\n\n\
         | figure | claim | paper | median | [min, max] | sign |\n\
         |---|---|---|---|---|---|\n",
        seed_list.join(", "),
        intervals.min(FIVE_DAYS_HOURS),
        intervals.min(ONE_WEEK_HOURS),
        100.0 * (1.0 - 2.0 * 0.5f64.powi(n as i32)),
    );
    for row in &ROWS {
        let values: Vec<f64> = runs.iter().map(row.extract).collect();
        let s = stats(&values, row.sign, row.decimals)
            .map_err(|e| format!("scorecard row {} {:?}: {e}", row.figure, row.claim))?;
        let d = row.decimals;
        let sign = match row.sign {
            Greater => "> 0",
            Less => "< 0",
            Equal => "= 0",
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.d$} | [{:.d$}, {:.d$}] | {sign}: {} / {n} |",
            row.figure, row.claim, row.paper, s.median, s.min, s.max, s.with_sign
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_n_median_is_the_mean_of_the_middle_pair() {
        let s = stats(&[4.0, -1.0, 3.0, 1.0], Greater, 1).expect("finite");
        assert_eq!((s.median, s.min, s.max, s.with_sign), (2.0, -1.0, 4.0, 3));
        assert_eq!(
            stats(&[5.0, 1.0, 3.0], Less, 1).expect("finite").median,
            3.0
        );
    }

    #[test]
    fn sign_is_read_at_the_printed_precision() {
        let signed = |sign, decimals| {
            let s = stats(&[0.004, -0.004, 0.006, -0.2], sign, decimals);
            s.expect("finite").with_sign
        };
        assert_eq!(
            [signed(Equal, 2), signed(Greater, 2), signed(Less, 2)],
            [2, 1, 1]
        );
        assert_eq!(signed(Equal, 3), 0);
    }

    #[test]
    fn a_nan_measurement_is_an_error_not_a_row() {
        let err = stats(&[1.0, f64::NAN, 2.0], Greater, 1).err();
        assert_eq!(err.as_deref(), Some("measurement 1 is NaN"));
        assert!(stats(&[], Greater, 1).is_err());
    }
}
