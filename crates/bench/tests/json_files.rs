//! The committed JSON files and the trace journal, read back with
//! `redoop_mapred::json`: every `BENCH_*.json` that `repro` writes
//! re-renders byte for byte, `BENCH_perf.json` (which `perf` writes in
//! its own style) parses and yields the values CI's simulated-clock gate
//! compares, and a traced run's journal round-trips in compact form.

use redoop_bench::experiments;
use redoop_bench::setup::RunConf;
use redoop_mapred::json::Json;
use redoop_mapred::trace::TraceSink;

fn committed(name: &str) -> String {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_repro_bench_file_re_renders_byte_for_byte() {
    for name in ["repro", "delta", "share", "salvage", "capacity", "scale"] {
        let text = committed(name);
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("BENCH_{name}.json: {e:?}"));
        assert_eq!(doc.get("schema"), Some(&Json::str("redoop-repro/1")), "{name}");
        assert!(doc.render_pretty() == text, "BENCH_{name}.json does not re-render byte for byte");
    }
}

#[test]
fn bench_perf_parses_into_the_simulated_values_ci_compares() {
    let doc = Json::parse(&committed("perf")).expect("BENCH_perf.json parses");
    let Some(Json::Arr(workloads)) = doc.get("workloads") else { panic!("no workloads array") };
    assert_eq!(workloads.len(), 5);
    for workload in workloads {
        let name = workload.get("name");
        let metrics = workload.get("traced").and_then(|t| t.get("metrics"));
        let Some(Json::Obj(metrics)) = metrics else { panic!("{name:?}: no traced metrics") };
        let sim: Vec<f64> = metrics
            .iter()
            .filter(|(key, _)| key.starts_with("sim."))
            .map(|(key, metric)| match metric.get("value") {
                Some(Json::Num(v)) => *v,
                Some(Json::Int(v)) => *v as f64,
                value => panic!("{name:?} {key}: {value:?}"),
            })
            .collect();
        assert!(!sim.is_empty(), "{name:?}: no sim.* values");
    }
}

#[test]
fn a_traced_run_round_trips_its_journal() {
    let sink = TraceSink::enabled();
    let s = experiments::fig6(&RunConf { trace: sink.clone(), ..RunConf::default() }, 0.9, 3, 5);
    assert!(s.outputs_match);
    let text = sink.render_json();
    let journal = Json::parse(&text).expect("the journal parses");
    assert!(journal.render_compact() == text, "the journal does not re-render byte for byte");
    assert_eq!(journal.get("dropped"), Some(&Json::Int(0)));
    let Some(Json::Arr(events)) = journal.get("events") else { panic!("no events array") };
    assert_eq!(events.len(), sink.len());
    assert!(events.iter().any(|e| e.get("type") == Some(&Json::str("placement"))));
}
