//! The exhibit registry: every table and figure this repository
//! regenerates, as the one list that `ibpower exhibits` and the golden
//! suite read.
//!
//! An entry's `run` computes its exhibit on a shared [`SweepEngine`],
//! writes `<name>.json` (plus any SVGs) through the [`OutputDir`], and
//! returns the rendered text block. `ibpower exhibits all` runs the
//! entries in order and joins their text, blank-line separated, into
//! `summary.txt`.

use crate::exhibits::{self, ExhibitGrid};
use crate::extensions;
use crate::output::OutputDir;
use crate::svg::{self, Mode};
use crate::sweep::SweepEngine;
use ibp_simcore::SimDuration;
use ibp_workloads::AppKind;
use serde::Serialize;
use std::io;

/// One registered exhibit.
#[derive(Clone, Copy)]
pub struct Exhibit {
    /// CLI name; also the stem of the JSON file the exhibit writes.
    pub name: &'static str,
    /// Computes the exhibit on the engine for a grid and seed, writes
    /// its files into the output directory, and returns its text.
    pub run: fn(&SweepEngine, &ExhibitGrid, u64, &OutputDir) -> io::Result<String>,
}

impl Exhibit {
    /// The registered exhibit called `name`.
    pub fn find(name: &str) -> Option<&'static Exhibit> {
        EXHIBITS.iter().find(|e| e.name == name)
    }
}

/// Rank count of the extension studies run at one scale (ablation,
/// robustness, fault tolerance).
const EXTENSION_PROCS: u32 = 16;

/// Rank count of the deep-sleep study.
const DEEP_SLEEP_PROCS: u32 = 8;

/// Every exhibit, in `summary.txt` order: the paper's Tables I–IV and
/// Figs. 7–10 first, then the studies beyond the paper.
///
/// Tables I and III and Figs. 7–9 cover the cells of the given grid;
/// the rest have fixed scales and ignore it.
pub const EXHIBITS: &[Exhibit] = &[
    Exhibit {
        name: "params",
        run: |_, _, _, out| {
            let params = ibp_network::SimParams::paper();
            out.write_json("params.json", &params)?;
            Ok(format!("== Table II ==\n{}\n", params.describe()))
        },
    },
    Exhibit {
        name: "table1",
        run: |engine, grid, seed, out| {
            let rows = exhibits::table1(engine, grid, seed);
            out.write_json("table1.json", &rows)?;
            Ok(format!("== Table I ==\n{}", exhibits::render_table1(&rows)))
        },
    },
    Exhibit {
        name: "table3",
        run: |engine, grid, seed, out| {
            let rows = exhibits::table3(engine, grid, seed);
            out.write_json("table3.json", &rows)?;
            Ok(format!(
                "== Table III ==\n{}",
                exhibits::render_table3(&rows)
            ))
        },
    },
    Exhibit {
        name: "table4",
        run: |engine, _, seed, out| {
            let rows = exhibits::table4(engine, seed);
            out.write_json("table4.json", &rows)?;
            Ok(format!(
                "== Table IV ==\n{}",
                exhibits::render_table4(&rows)
            ))
        },
    },
    Exhibit {
        name: "fig7",
        run: |engine, grid, seed, out| figure("fig7", 0.10, engine, grid, seed, out),
    },
    Exhibit {
        name: "fig8",
        run: |engine, grid, seed, out| figure("fig8", 0.05, engine, grid, seed, out),
    },
    Exhibit {
        name: "fig9",
        run: |engine, grid, seed, out| figure("fig9", 0.01, engine, grid, seed, out),
    },
    Exhibit {
        name: "fig10",
        run: |engine, _, seed, out| {
            let data = exhibits::fig10(engine, seed);
            out.write_json("fig10.json", &data)?;
            out.write_text("fig10.svg", &svg::fig10_svg(&data, Mode::Light))?;
            out.write_text("fig10-dark.svg", &svg::fig10_svg(&data, Mode::Dark))?;
            Ok(exhibits::render_fig10(&data))
        },
    },
    Exhibit {
        name: "generation_frontier",
        run: |engine, _, seed, out| {
            let rows = crate::generation_frontier(engine, seed)
                .map_err(|e| io::Error::other(format!("generation_frontier: {e}")))?;
            out.write_json("generation_frontier.json", &rows)?;
            Ok(format!(
                "== Generation x sleep-depth frontier (8 ranks, NAS BT 9) ==\n{}",
                crate::render_generation_frontier(&rows)
            ))
        },
    },
    Exhibit {
        name: "ablation",
        run: |engine, _, seed, out| {
            let rows = extensions::policy_ablation(engine, EXTENSION_PROCS, seed);
            study(
                out,
                "ablation",
                &rows,
                format!(
                    "== Policy ablation at {EXTENSION_PROCS} ranks (displacement 1%, GT 20us) ==\n\
                     oracle: perfect idle knowledge, zero stalls (upper bound)\n\
                     reactive-Xus: hardware idle-timeout, full T_react stall per wake"
                ),
                extensions::render_policy_ablation(&rows),
            )
        },
    },
    Exhibit {
        name: "deepsleep",
        run: |engine, _, seed, out| {
            let threshold = SimDuration::from_ms(5);
            let rows = extensions::deep_sleep_study(engine, DEEP_SLEEP_PROCS, threshold, seed);
            study(
                out,
                "deepsleep",
                &rows,
                format!(
                    "== Deep-sleep extension at {DEEP_SLEEP_PROCS} ranks (threshold {threshold}) ==\n\
                     deep state: 1 ms reactivation, 10% draw; WRPS: 10 us, 43% draw"
                ),
                extensions::render_deep_sleep(&rows),
            )
        },
    },
    Exhibit {
        name: "weak_scaling",
        run: |engine, _, seed, out| {
            let rows: Vec<_> = AppKind::ALL
                .iter()
                .map(|&app| extensions::weak_scaling_study(engine, app, seed))
                .collect();
            study(
                out,
                "weak_scaling",
                &rows,
                "== Strong vs weak scaling: IB switch power savings [%] ==".to_string(),
                extensions::render_weak_scaling(&rows),
            )
        },
    },
    Exhibit {
        name: "robustness",
        run: |engine, _, seed, out| {
            let rows = extensions::robustness_study(engine, EXTENSION_PROCS, seed);
            study(
                out,
                "robustness",
                &rows,
                format!(
                    "== Robustness: ALYA at {EXTENSION_PROCS} ranks under jitter amplification ==\n\
                     (displacement 1%; stalls are capped at T_react per wake-up; seed {seed:#x})"
                ),
                extensions::render_robustness(&rows),
            )
        },
    },
    Exhibit {
        name: "fault_tolerance",
        run: |engine, _, seed, out| {
            let rows = extensions::fault_tolerance_study(engine, EXTENSION_PROCS, seed);
            study(
                out,
                "fault_tolerance",
                &rows,
                format!(
                    "== Fault tolerance: ALYA at {EXTENSION_PROCS} ranks under link fault injection ==\n\
                     (slowdowns vs a power-unaware baseline under the same faults; seed {seed:#x})"
                ),
                extensions::render_fault_tolerance(&rows),
            )
        },
    },
];

/// Figs. 7–9: one displacement factor, JSON plus light and dark SVGs.
fn figure(
    name: &str,
    displacement: f64,
    engine: &SweepEngine,
    grid: &ExhibitGrid,
    seed: u64,
    out: &OutputDir,
) -> io::Result<String> {
    let fig = exhibits::figure(engine, grid, displacement, seed);
    out.write_json(&format!("{name}.json"), &fig)?;
    out.write_text(&format!("{name}.svg"), &svg::figure_svg(&fig, Mode::Light))?;
    out.write_text(
        &format!("{name}-dark.svg"),
        &svg::figure_svg(&fig, Mode::Dark),
    )?;
    Ok(format!("== {name} ==\n{}", exhibits::render_figure(&fig)))
}

/// An extension study: writes `<name>.json` and returns the heading, a
/// blank line, and the table.
fn study<T: Serialize>(
    out: &OutputDir,
    name: &str,
    rows: &T,
    heading: String,
    table: String,
) -> io::Result<String> {
    out.write_json(&format!("{name}.json"), rows)?;
    Ok(format!("{heading}\n\n{table}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for (i, e) in EXHIBITS.iter().enumerate() {
            assert!(EXHIBITS[..i].iter().all(|p| p.name != e.name), "{}", e.name);
            assert_eq!(Exhibit::find(e.name).map(|f| f.name), Some(e.name));
        }
        assert!(
            Exhibit::find("all").is_none(),
            "`all` is the CLI's batch, not an entry"
        );
        assert!(Exhibit::find("fig11").is_none());
    }

    #[test]
    fn params_writes_json_and_the_table_ii_block() {
        let dir = std::env::temp_dir().join(format!("ibp-registry-{}", std::process::id()));
        let out = OutputDir::new(&dir).unwrap();
        let engine = SweepEngine::new(crate::SweepOptions::serial());
        let run = Exhibit::find("params").unwrap().run;
        let text = run(&engine, &ExhibitGrid::paper(), exhibits::SEED, &out).unwrap();
        assert!(text.starts_with("== Table II ==\nSimulator"), "{text}");
        assert!(text.ends_with('\n'));
        assert!(dir.join("params.json").exists());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn robustness_delta_counts_its_cells() {
        let dir = std::env::temp_dir().join(format!("ibp-registry-rob-{}", std::process::id()));
        let out = OutputDir::new(&dir).unwrap();
        let engine = SweepEngine::new(crate::SweepOptions::serial());
        let mark = engine.stats();
        let run = Exhibit::find("robustness").unwrap().run;
        run(&engine, &ExhibitGrid::paper(), exhibits::SEED, &out).unwrap();
        let delta = engine.stats().since(&mark);
        assert_eq!(delta.cells, 7);
        assert_eq!(delta.traces_generated, 7);
        assert_eq!(delta.baselines_computed, 7);
        assert!(delta.trace_bytes > 0, "{delta:?}");
        std::fs::remove_dir_all(dir).ok();
    }
}
