//! The benchmark's own tests: determinism of its inputs, the metric
//! declarations against `BENCHMARK.json`, the output check, and a smoke
//! run of every workload at `Scale::Test`.

use std::time::Instant;

use simbench::layers::{declared, END_TO_END, PER_LAYER};
use simbench::plan::{Plan, Workload};
use simbench::run::{check, run_pass, setup, Mode, SimOutcome};
use simbench::{end_to_end, shadow, traced, Options};
use vta_dbt::VirtualArchConfig;
use vta_sim::Stats;
use vta_workloads::Scale;

fn test_opts(workload: Workload, seed: u64) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        scale: Scale::Test,
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `"name"` values inside the JSON array that follows `key`.
fn json_names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn same_seed_gives_same_plan_corpora_and_digest() {
    for w in Workload::ALL {
        let a = Plan::new(w, 7, Scale::Test);
        let b = Plan::new(w, 7, Scale::Test);
        let key = |p: &Plan| -> Vec<(usize, String)> {
            p.cells
                .iter()
                .map(|c| (c.program, c.label.clone()))
                .collect()
        };
        assert_eq!(key(&a), key(&b), "{}", w.name());
    }
    let sweep = |seed| {
        Plan::new(Workload::FigSweep, seed, Scale::Test)
            .cells
            .iter()
            .map(|c| c.label.clone())
            .collect::<Vec<_>>()
    };
    assert_ne!(sweep(1), sweep(2), "the seed draws the sweep");

    let plan = Plan::new(Workload::HotLoop, 7, Scale::Test);
    let (programs, _) = setup(&plan).expect("reference runs exit");
    let first = run_pass(&plan, &programs, Mode::Timed);
    let second = run_pass(&plan, &programs, Mode::Profiled);
    assert_eq!(
        first.sim_digest(&plan, &programs),
        second.sim_digest(&plan, &programs)
    );

    let cfg = VirtualArchConfig::paper_default();
    let p = &programs[0];
    let c1 = shadow::capture(&p.image, &cfg, p.expected.guest_insns).expect("captures");
    let c2 = shadow::capture(&p.image, &cfg, p.expected.guest_insns).expect("captures");
    assert_eq!(c1.entries, c2.entries);
    assert_eq!(c1.accesses, c2.accesses);
    assert_eq!(c1.insn_addrs, c2.insn_addrs);
    assert_eq!(c1.loads, c2.loads);
    assert_eq!(c1.blocks, c2.blocks);
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    for name in &all {
        assert!(well_formed(name), "{name}");
        assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name}");
    }
}

#[test]
fn every_per_layer_metric_names_what_it_moves() {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    for d in PER_LAYER {
        for m in d.moves {
            assert!(
                END_TO_END.iter().any(|e| e.name == *m),
                "{} moves unknown metric {m}",
                d.name
            );
        }
        assert!(
            !d.moves.is_empty() || d.name.starts_with("trace."),
            "{} moves nothing",
            d.name
        );
        assert!(!d.on.is_empty(), "{}", d.name);
        for w in d.on {
            assert!(*w == "all" || workloads.contains(w), "{}: {w}", d.name);
        }
    }
}

#[test]
fn benchmark_json_lists_the_declared_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e = json_names(&json, "end_to_end");
    let layers = json_names(&json, "per_layer");
    let workloads = json_names(&json, "workloads");
    assert_eq!(
        e2e,
        END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>(),
        "end_to_end"
    );
    assert_eq!(
        layers,
        PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>(),
        "per_layer"
    );
    assert!(!workloads.is_empty());
    for w in &workloads {
        assert!(Workload::parse(w).is_some(), "unknown workload {w}");
    }
    for name in e2e.iter().chain(&layers) {
        let d = declared(name).expect("declared");
        let entry = &json[json.find(&format!("\"name\": \"{name}\"")).expect("listed")..];
        let entry = &entry[..entry.find('}').expect("entry closes")];
        assert!(
            entry.contains(&format!("\"unit\": \"{}\"", d.unit)),
            "{name} unit"
        );
        assert!(
            entry.contains(&format!("\"better\": \"{}\"", d.better)),
            "{name} better"
        );
    }
}

#[test]
fn a_mismatched_cell_fails_the_check() {
    let want = simbench::run::Expected {
        exit_code: 3,
        guest_insns: 100,
        piii_cycles: 50,
    };
    let outcome = |exit_code, guest_insns| SimOutcome {
        cycles: 1,
        guest_insns,
        exit_code,
        stats: Stats::new(),
    };
    assert_eq!(check(&outcome(Some(3), 100), &want), None);
    assert!(check(&outcome(Some(4), 100), &want).is_some());
    assert!(check(&outcome(Some(3), 99), &want).is_some());
    assert!(check(&outcome(None, 100), &want).is_some());
}

#[test]
fn smoke_run_of_every_workload_at_test_scale() {
    let started = Instant::now();
    for w in Workload::ALL {
        let out = end_to_end(&test_opts(w, 1)).expect("sets up");
        assert!(out.correct(), "{}: {:?}", w.name(), out.errors);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        for d in END_TO_END {
            let m = out.metrics.iter().find(|m| m.name == d.name);
            let m = m.unwrap_or_else(|| panic!("{} missing", d.name));
            assert!(m.value > 0.0, "{} = {}", d.name, m.value);
        }
    }
    let out = traced(&test_opts(Workload::HotLoop, 1)).expect("sets up");
    assert!(out.correct(), "{:?}", out.errors);
    for d in PER_LAYER {
        assert!(
            out.metrics.iter().any(|m| m.name == d.name),
            "{} missing",
            d.name
        );
    }
    assert!(started.elapsed().as_secs() < 120, "smoke run too slow");
}
