//! Self-tests of the benchmark's own machinery: names, percentiles, span
//! self time, failure accounting, the result schema and its declaration in
//! `BENCHMARK.json`, and the input and output checks.

use tane_util::{AttrSet, Fd, Json};
use tanebench::metrics::{Decl, END_TO_END, PER_LAYER};
use tanebench::report::{error_rate, valid_name, valid_unit, Metric, RunResult};
use tanebench::stats::{median, percentile, reportable_percentile};
use tanebench::trace::{self_times, Span};
use tanebench::{check, data, Outcome};

#[test]
fn metric_names_follow_the_grammar() {
    for good in [
        "setup_s",
        "core.g3_exact",
        "a",
        "9lives",
        "x-y.z_1",
        &"m".repeat(64),
    ] {
        assert!(valid_name(good), "{good}");
    }
    for bad in [
        "",
        "_lead",
        ".lead",
        "-lead",
        "has space",
        "slash/no",
        "ü",
        &"m".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
    for good in ["s", "ms", "1/s", "count", "%", "ns/elem", "rows/s", "MB"] {
        assert!(valid_unit(good), "{good}");
    }
    for bad in ["", "per second", "ünit", &"u".repeat(17)] {
        assert!(!valid_unit(bad), "{bad}");
    }
    let all: Vec<&Decl> = END_TO_END.iter().chain(PER_LAYER).collect();
    for (i, d) in all.iter().enumerate() {
        assert!(valid_name(d.name) && valid_unit(d.unit), "{}", d.name);
        assert!(
            all[..i].iter().all(|e| e.name != d.name),
            "{} twice",
            d.name
        );
    }
}

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    assert_eq!(reportable_percentile(0), None);
    assert_eq!(reportable_percentile(19), None);
    assert_eq!(reportable_percentile(20), Some(50.0));
    assert_eq!(reportable_percentile(99), Some(50.0));
    assert_eq!(reportable_percentile(100), Some(90.0));
    assert_eq!(reportable_percentile(999), Some(90.0));
    assert_eq!(reportable_percentile(1000), Some(99.0));
    assert_eq!(reportable_percentile(10_000), Some(99.9));

    let xs: Vec<f64> = (1..=11).map(f64::from).rev().collect();
    assert_eq!(median(&xs), 6.0);
    assert_eq!(percentile(&xs, 90.0), 10.0);
    assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    assert_eq!(median(&[]), 0.0);
}

fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: name.into(),
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let spans = [
        span("core.discover", 0, 100, None),
        span("core.level", 10, 40, Some(0)),
        span("core.level", 30, 60, Some(0)),
        // Runs past its parent's end: only the inside part counts.
        span("core.level", 90, 120, Some(0)),
        span("partition.product", 35, 45, Some(2)),
        span("bench.check", 200, 250, None),
    ];
    // Parent 0: children cover [10,60] ∪ [90,100] = 60 of 100.
    assert_eq!(self_times(&spans), vec![40, 30, 20, 30, 10, 50]);
}

#[test]
fn each_failed_operation_counts_once() {
    let mut out = Outcome::new(false);
    out.op(Vec::new());
    out.op(vec!["wrong cover".into(), "leaked spill".into()]);
    out.op(Vec::new());
    out.op(vec!["status 500".into()]);
    assert_eq!((out.attempted, out.failed), (4, 2));
    assert_eq!(error_rate(out.attempted, out.failed), 0.5);
    assert_eq!(error_rate(0, 0), 0.0);
    assert_eq!(out.failures.len(), 3);
}

#[test]
fn result_schema_round_trips() {
    let result = RunResult {
        correct: true,
        attempted: 1000,
        failed: 0,
        metrics: vec![
            Metric::new("latency_ms", 1.2034, "ms"),
            Metric::new("setup_s", 0.812_700_000_000_001, "s"),
            Metric::new("core.validity_tests", 123_456.0, "count"),
        ],
    };
    let line = result.to_json();
    assert!(!line.contains('\n'));
    assert_eq!(RunResult::parse(&line), Ok(result));

    for bad in [
        r#"{"correct":true,"attempted":1,"failed":0}"#,
        r#"{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}"#,
        r#"{"correct":true,"attempted":0,"failed":0,"metrics":{}}"#,
        r#"{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}"#,
        r#"{"correct":"yes","attempted":1,"failed":0,"metrics":{}}"#,
        r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"_x":{"value":1,"unit":"s"}}}"#,
        r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"value":1}}}"#,
    ] {
        assert!(RunResult::parse(bad).is_err(), "{bad}");
    }
}

/// `BENCHMARK.json` declares exactly the metric tables the binary prints.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = doc.get(key).and_then(Json::as_array).expect(key);
        assert_eq!(declared.len(), table.len(), "{key}");
        for (entry, decl) in declared.iter().zip(table) {
            let field = |f: &str| entry.get(f).and_then(Json::as_str).unwrap_or("");
            assert_eq!(field("name"), decl.name);
            assert_eq!(field("unit"), decl.unit, "{}", decl.name);
            let better = if decl.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field("better"), better, "{}", decl.name);
        }
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let mut expected: Vec<&str> = tanebench::batch::workloads()
        .iter()
        .map(|b| b.name)
        .collect();
    expected.push("serve-churn");
    assert_eq!(workloads, expected);
}

#[test]
fn shuffle_keeps_the_cover_and_changes_the_bytes() {
    let base = tane_datasets::wisconsin_breast_cancer();
    let config = tane_core::TaneConfig::default();
    let cover = |r: &tane_relation::Relation| {
        check::render(r, &tane_core::discover_fds(r, &config).unwrap().fds)
    };
    let a = data::from_csv(&data::to_csv(&data::shuffled(&base, 1))).unwrap();
    let b = data::from_csv(&data::to_csv(&data::shuffled(&base, 2))).unwrap();
    assert_eq!(cover(&a), cover(&base));
    assert_eq!(cover(&b), cover(&base));
    assert_ne!(data::to_csv(&a), data::to_csv(&b));
    assert_eq!(
        data::to_csv(&data::shuffled(&base, 7)),
        data::to_csv(&data::shuffled(&base, 7))
    );
}

#[test]
fn oracle_check_rejects_unsound_and_non_minimal_dependencies() {
    let r = data::from_csv(b"A,B,C\n1,x,p\n1,x,q\n2,y,p\n3,y,q\n").unwrap();
    let fd = |lhs: &[usize], rhs| Fd::new(AttrSet::from_indices(lhs.iter().copied()), rhs);
    // A -> B holds and is minimal; B -> A does not hold; {A,C} -> B holds
    // but is not minimal.
    assert_eq!(check::check_cover(&r, &[fd(&[0], 1)], 0.0, 2), Ok(()));
    assert!(check::check_cover(&r, &[fd(&[0], 1), fd(&[1], 0)], 0.0, 2).is_err());
    assert!(check::check_cover(&r, &[fd(&[0, 2], 1)], 0.0, 1).is_err());
    // Within ε = 0.25, one of four rows may be removed: B -> A holds.
    assert_eq!(check::check_cover(&r, &[fd(&[1], 0)], 0.25, 1), Ok(()));
    assert_ne!(
        check::cover_digest(&["A -> B"]),
        check::cover_digest(&["A -> C"])
    );
}

#[test]
fn leftover_spill_directories_fail_and_are_measured() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spill-check");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("tane-partitions-1-0")).unwrap();
    std::fs::write(dir.join("tane-partitions-1-0/seg-0"), [0u8; 100]).unwrap();
    std::fs::write(dir.join("unrelated"), [0u8; 7]).unwrap();
    let mut out = Outcome::new(false);
    assert!(out.spill_problem(&dir).is_some());
    assert_eq!(out.leftover_spill_bytes, 100);
    assert!(out.spill_problem(&dir).is_none(), "leftovers are removed");
    assert!(dir.join("unrelated").exists());
}
