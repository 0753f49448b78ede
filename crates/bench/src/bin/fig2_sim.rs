//! Regenerates the paper's Figure 2 (all four panels) on the
//! discrete-event cluster model, plus the ablations DESIGN.md calls
//! out.
//!
//! ```text
//! fig2_sim                 # all four panels
//! fig2_sim --panel c       # one panel
//! fig2_sim --efficiency    # speedup/efficiency table for M = 1..512
//! fig2_sim --ablation      # tiny-tau and perpass sweeps
//! fig2_sim --trace out.jsonl [volume]   # monitored run, jsonl trace
//! ```

use std::process::ExitCode;

use parmonc_faults::FaultPlan;
use parmonc_obs::{JsonlSink, Monitor};
use parmonc_simcluster::figure2::{panel_series, render_panel, Panel};
use parmonc_simcluster::hybrid::{compare_quota_modes, NodeClass};
use parmonc_simcluster::{simulate, simulate_with, ClusterConfig, ExchangePolicy};

fn panels(filter: Option<char>) {
    for panel in Panel::ALL {
        if filter.is_none_or(|c| c == panel.letter()) {
            println!("{}", render_panel(panel));
        }
    }
}

fn efficiency_table() {
    println!("speedup under strictest exchange (send after every realization)");
    println!("tau = 7.7 s, 120 KB messages, L = 75000");
    println!(
        "{:>5} {:>14} {:>10} {:>12}",
        "M", "T_comp (s)", "speedup", "efficiency"
    );
    let l = 75_000;
    let t1 = simulate(&ClusterConfig::paper_testbed(1), l).t_comp;
    for m in [1usize, 8, 16, 32, 64, 128, 256, 512] {
        let r = simulate(&ClusterConfig::paper_testbed(m), l);
        println!(
            "{m:>5} {:>14.1} {:>10.1} {:>11.1}%",
            r.t_comp,
            t1 / r.t_comp,
            100.0 * t1 / r.t_comp / m as f64
        );
    }
}

fn ablation() {
    println!("ablation 1: shrinking tau under per-realization exchange (M = 64, L = 64000)");
    println!("{:>12} {:>14} {:>10}", "tau (s)", "T_comp (s)", "speedup");
    for tau in [7.7, 0.77, 0.077, 0.0077, 0.0008] {
        let mut c = ClusterConfig::paper_testbed(64);
        c.realization_seconds = tau;
        let mut c1 = c.clone();
        c1.processors = 1;
        let t1 = simulate(&c1, 64_000).t_comp;
        let tm = simulate(&c, 64_000).t_comp;
        println!("{tau:>12.4} {tm:>14.2} {:>10.1}", t1 / tm);
    }
    println!();
    println!("ablation 2: periodic exchange (perpass) rescues tiny tau (tau = 0.0008 s)");
    println!(
        "{:>16} {:>14} {:>10} {:>10}",
        "perpass (s)", "T_comp (s)", "speedup", "messages"
    );
    let mut c = ClusterConfig::paper_testbed(64);
    c.realization_seconds = 0.0008;
    let mut c1 = c.clone();
    c1.processors = 1;
    let t1 = simulate(&c1, 64_000).t_comp;
    {
        let r = simulate(&c, 64_000);
        println!(
            "{:>16} {:>14.2} {:>10.1} {:>10}",
            "every realiz.",
            r.t_comp,
            t1 / r.t_comp,
            r.messages
        );
    }
    for period in [0.01, 0.1, 1.0, 10.0] {
        let mut cp = c.clone();
        cp.exchange = ExchangePolicy::Periodic { period };
        let r = simulate(&cp, 64_000);
        println!(
            "{period:>16.2} {:>14.2} {:>10.1} {:>10}",
            r.t_comp,
            t1 / r.t_comp,
            r.messages
        );
    }
}

fn hybrid() {
    // The paper's conclusion: adapt PARMONC to GPU / hybrid clusters.
    println!("hybrid clusters (paper Section 5 future work): 8 CPU nodes + N GPU nodes,");
    println!("GPU = 40x a CPU node, L = 65600, per-realization exchange");
    println!(
        "{:>6} {:>10} {:>16} {:>17} {:>10}",
        "GPUs", "ideal", "uniform quota", "weighted quota", "recovered"
    );
    for gpus in [1usize, 4, 8, 16] {
        let classes = [NodeClass::new(8, 1.0), NodeClass::new(gpus, 40.0)];
        let cmp = compare_quota_modes(&classes, 65_600);
        println!(
            "{gpus:>6} {:>9.0}x {:>15.1}x {:>16.1}x {:>9.0}%",
            cmp.total_speed,
            cmp.uniform_speedup(),
            cmp.weighted_speedup(),
            100.0 * cmp.weighted_speedup() / cmp.total_speed
        );
    }
    println!("\n(uniform static quotas idle the GPUs behind the slowest CPU share;");
    println!(" speed-weighted static quotas recover near-ideal efficiency with no");
    println!(" dynamic load balancing — the PARMONC design carries over.)");
}

/// `--trace out.jsonl [volume]`: a monitored virtual-time run of the
/// paper's 4-processor testbed, writing the event trace for post-hoc
/// analysis with `parmonc-trace` (the CI trace-analysis step compares
/// it against a real-thread run of the same volume).
fn write_trace(path: &str, volume: u64) -> Result<(), String> {
    let sink = JsonlSink::create(path).map_err(|e| format!("creating {path}: {e}"))?;
    let monitor = Monitor::new(vec![Box::new(sink)]);
    let config = ClusterConfig::paper_testbed(4);
    let run = simulate_with(&config, volume, &FaultPlan::none(), 50.0, &monitor);
    if monitor.flush() > 0 {
        return Err(format!("dropped trace lines while writing {path}"));
    }
    println!(
        "simulated {volume} realizations on 4 virtual processors (T_comp {:.1} s); trace in {path}",
        run.result.t_comp
    );
    Ok(())
}

fn check_shape() -> bool {
    // The acceptance criterion recorded in EXPERIMENTS.md: adjacent
    // curves in every panel scale by their processor ratio within 7%.
    let mut ok = true;
    for panel in Panel::ALL {
        let series = panel_series(panel);
        for w in series.windows(2) {
            let ratio_m = w[1].processors as f64 / w[0].processors as f64;
            for (i, &(_, t_small)) in w[0].points.iter().enumerate() {
                let ratio_t = t_small / w[1].points[i].1;
                if (ratio_t - ratio_m).abs() > 0.07 * ratio_m {
                    ok = false;
                }
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            panels(None);
            efficiency_table();
        }
        Some("--panel") => {
            let Some(letter) = args.get(1).and_then(|s| s.chars().next()) else {
                eprintln!("usage: fig2_sim --panel <a|b|c|d>");
                return ExitCode::FAILURE;
            };
            panels(Some(letter));
        }
        Some("--efficiency") => efficiency_table(),
        Some("--ablation") => ablation(),
        Some("--hybrid") => hybrid(),
        Some("--trace") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: fig2_sim --trace <out.jsonl> [volume]");
                return ExitCode::FAILURE;
            };
            let volume = match args.get(2) {
                Some(v) => match v.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("volume must be an integer, got {v:?}");
                        return ExitCode::FAILURE;
                    }
                },
                None => 20_000,
            };
            return match write_trace(path, volume) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("fig2_sim: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some(other) => {
            eprintln!("unknown option {other:?}");
            eprintln!(
                "usage: fig2_sim [--panel <a|b|c|d> | --efficiency | --ablation | --hybrid | --trace <out.jsonl> [volume]]"
            );
            return ExitCode::FAILURE;
        }
    }
    if check_shape() {
        println!("\nshape check: linear speedup holds in all four panels (within 7%)");
        ExitCode::SUCCESS
    } else {
        println!("\nshape check FAILED: some curve deviates from linear speedup");
        ExitCode::FAILURE
    }
}
