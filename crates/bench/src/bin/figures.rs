//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [--fig <id>] [--scale quick|default|paper] [--seed N]
//!
//!   ids: config table1 fig3 fig4 fig5 fig6 fig7 fig8 overhead fig9 fig10
//!        reduction fig11 summary all (default: all)
//! ```
//!
//! A malformed argument ends the run with one `figures:` line on stderr and
//! exit code 2.

use tfsim_bench::{
    render_config, render_fig10, render_fig11, render_fig3, render_fig4, render_fig5, render_fig6,
    render_fig7, render_fig8, render_fig9, render_overhead, render_reduction, render_summary,
    render_table1, run_campaigns, run_sw_experiments, Scale,
};

/// Refuses the command line: one `figures:` line on stderr, exit code 2.
fn usage_error(msg: String) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fig = "all".to_string();
    let mut scale = Scale::Quick;
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                fig = args.get(i + 1).cloned().unwrap_or_default();
                i += 2;
            }
            "--scale" => {
                let s = args.get(i + 1).map(String::as_str).unwrap_or("");
                scale = Scale::parse(s).unwrap_or_else(|| {
                    usage_error(format!("unknown scale {s:?}; use quick|default|paper"))
                });
                i += 2;
            }
            "--seed" => {
                seed = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    usage_error("--seed needs a numeric argument".to_string())
                });
                i += 2;
            }
            other => usage_error(format!("unknown argument {other:?}")),
        }
    }

    let needs_campaigns = matches!(
        fig.as_str(),
        "all" | "fig3" | "fig4" | "fig5" | "fig6" | "fig7" | "fig8" | "fig9" | "fig10" | "reduction" | "summary"
    );
    let needs_sw = matches!(fig.as_str(), "all" | "fig11" | "summary");

    let campaigns = if needs_campaigns {
        eprintln!("[figures] running injection campaigns at {scale:?} scale...");
        Some(run_campaigns(scale, seed))
    } else {
        None
    };
    let sw = if needs_sw {
        eprintln!("[figures] running software-level fault models...");
        Some(run_sw_experiments(scale, seed))
    } else {
        None
    };

    let c = campaigns.as_ref();
    let s = sw.as_deref();
    let mut any = false;
    let mut emit = |id: &str, text: String| {
        println!("{text}");
        any = true;
        let _ = id;
    };
    let all = fig == "all";
    if all || fig == "config" {
        emit("config", render_config());
    }
    if all || fig == "table1" {
        emit("table1", render_table1());
    }
    if all || fig == "fig3" {
        emit("fig3", render_fig3(c.expect("campaigns")));
    }
    if all || fig == "fig4" {
        emit("fig4", render_fig4(c.expect("campaigns")));
    }
    if all || fig == "fig5" {
        emit("fig5", render_fig5(c.expect("campaigns")));
    }
    if all || fig == "fig6" {
        emit("fig6", render_fig6(c.expect("campaigns")));
    }
    if all || fig == "fig7" {
        emit("fig7", render_fig7(c.expect("campaigns")));
    }
    if all || fig == "fig8" {
        emit("fig8", render_fig8(c.expect("campaigns")));
    }
    if all || fig == "overhead" {
        emit("overhead", render_overhead());
    }
    if all || fig == "fig9" {
        emit("fig9", render_fig9(c.expect("campaigns")));
    }
    if all || fig == "fig10" {
        emit("fig10", render_fig10(c.expect("campaigns")));
    }
    if all || fig == "reduction" {
        emit("reduction", render_reduction(c.expect("campaigns")));
    }
    if all || fig == "fig11" {
        emit("fig11", render_fig11(s.expect("software experiments")));
    }
    if all || fig == "summary" {
        emit("summary", render_summary(c.expect("campaigns"), s.expect("sw")));
    }
    if !any {
        usage_error(format!("unknown figure id {fig:?}"));
    }
}
