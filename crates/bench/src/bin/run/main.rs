//! Regenerate the paper's evaluation (Sec. V): one entry point, one module
//! per figure.
//!
//! ```text
//! cargo run --release -p cashmere-bench --bin run -- <figure> [figure args] [shared flags]
//! cargo run --release -p cashmere-bench --bin run -- scaling kmeans --jobs 4
//! cargo run --release -p cashmere-bench --bin run -- hetero --faults plan.json
//! cargo run --release -p cashmere-bench --bin run -- ablation --trace out.json --explain
//! cargo run --release -p cashmere-bench --bin run -- gantt --small
//! cargo run --release -p cashmere-bench --bin run -- hetero --dump-scenario
//! cargo run --release -p cashmere-bench --bin run -- --scenario s.json
//! ```
//!
//! | figure     | regenerates | artifact |
//! |------------|-------------|----------|
//! | `tables`   | Table I, Table II, Fig. 2 (`table1`/`table2`/`fig2` for one) | — |
//! | `fig6`     | Fig. 6 kernel GFLOPS | `fig6_kernel_performance.json` |
//! | `scaling`  | Figs. 7–14 (`<app>` for one) | `fig7_14_scaling[_<app>].json` |
//! | `hetero`   | Table III, Fig. 15 | `table3_fig15_hetero.json` |
//! | `ablation` | balancer/overlap/network/slot ablations | `ablation.json` |
//! | `gantt`    | Figs. 16/17 (`--small` for CI) | `fig16_17_gantt[.small].csv` |
//!
//! Each cluster figure is two functions: `scenarios` builds its preset
//! list (with the CLI overrides applied), `report` prints its tables and
//! writes its artifact from the results in declared order. `main` owns
//! everything in between: the shared flags (see [`cli`]), `--dump-scenario`,
//! one sweep over the scenarios (`--jobs N` runs them on N worker threads;
//! output is byte-identical to `--jobs 1`), and the `--self-profile`
//! exports, whose root frame is the figure name. `--scenario file.json`
//! runs one spec file instead of a figure.

#![forbid(unsafe_code)]

mod ablation;
mod fig6;
mod gantt;
mod hetero;
mod scaling;
mod tables;

use cashmere_bench::cli::{self, fail};
use cashmere_bench::{run_scenario, sweep};

const FIGURES: &str = "tables|fig6|scaling|hetero|ablation|gantt";

fn main() {
    let (mut common, rest) = cli::common_args();
    let (figure, args) = match rest.get(1..) {
        Some([figure, args @ ..]) => (figure.as_str(), args),
        _ => ("", &[][..]),
    };
    if common.scenario.is_some() {
        if !figure.is_empty() {
            fail(&format!(
                "--scenario runs a spec file, not a figure: drop `{figure}`"
            ));
        }
        cli::handle_scenario(&common);
        return;
    }
    let scenarios = match figure {
        "scaling" => scaling::scenarios(&common, args),
        "hetero" => hetero::scenarios(&common, args),
        "ablation" => ablation::scenarios(&common, args),
        "gantt" => gantt::scenarios(&common, args),
        "fig6" | "tables" => Vec::new(),
        "" => fail(&format!("usage: run <figure> [args] (figures: {FIGURES})")),
        other => fail(&format!("unknown figure `{other}` ({FIGURES})")),
    };
    common.program = figure.to_string();
    if common.dump {
        if scenarios.is_empty() {
            println!("note: {figure} runs no cluster scenarios — nothing to dump");
        } else {
            cli::dump_scenarios(&scenarios);
        }
        return;
    }
    if scenarios.is_empty() && common.outputs.observe() {
        println!(
            "note: {figure} runs no cluster scenarios; --trace/--explain have no effect here\n"
        );
    }
    let runs = sweep(scenarios.clone(), common.jobs, |sc| run_scenario(&sc));
    match figure {
        "scaling" => scaling::report(&scenarios, &runs),
        "hetero" => hetero::report(&scenarios, &runs),
        "ablation" => ablation::report(&scenarios, &runs),
        "gantt" => gantt::report(&scenarios, &runs),
        "fig6" => fig6::report(common.jobs),
        _ => tables::report(args),
    }
    cli::finish(&common, &scenarios);
}
