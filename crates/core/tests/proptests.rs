//! Property-based tests for Redoop's core invariants: pane geometry,
//! the Semantic Analyzer's plans, the Dynamic Data Packer's routing, the
//! cache status matrix, and the Execution Profiler.

use std::collections::BTreeMap;

use proptest::prelude::*;

use redoop_core::analyzer::{PartitionPlan, SemanticAnalyzer, SourceStats};
use redoop_core::cache::status_matrix::CacheStatusMatrix;
use redoop_core::packer::DynamicDataPacker;
use redoop_core::prelude::*;
use redoop_core::profiler::{ExecutionProfiler, Observation};
use redoop_core::query::WindowSpec;
use redoop_dfs::{Cluster, DfsPath};
use redoop_mapred::SimTime;

/// Valid (win, slide) pairs with slide <= win.
fn window_spec() -> impl Strategy<Value = WindowSpec> {
    (1u64..500, 1u64..500)
        .prop_map(|(a, b)| {
            let (win, slide) = (a.max(b), a.min(b));
            WindowSpec::new(win * 100, slide * 100).unwrap()
        })
}

proptest! {
    #[test]
    fn pane_divides_window_and_slide(spec in window_spec()) {
        let g = PaneGeometry::from_spec(&spec);
        prop_assert_eq!(spec.win % g.pane_ms, 0);
        prop_assert_eq!(spec.slide % g.pane_ms, 0);
        prop_assert_eq!(g.panes_per_window * g.pane_ms, spec.win);
        prop_assert_eq!(g.panes_per_slide * g.pane_ms, spec.slide);
    }

    #[test]
    fn window_panes_cover_window_range_exactly(spec in window_spec(), w in 0u64..20) {
        let g = PaneGeometry::from_spec(&spec);
        let range = spec.window_range(w);
        let panes = g.window_panes(w);
        // First pane starts at the window start; last ends at window end.
        prop_assert_eq!(g.pane_range(PaneId(panes.start)).start, range.start);
        prop_assert_eq!(g.pane_range(PaneId(panes.end - 1)).end, range.end);
        // Every event time in the window lands in one of its panes.
        for t in [range.start.0, range.start.0 + spec.win / 2, range.end.0 - 1] {
            let p = g.pane_of(EventTime(t));
            prop_assert!(panes.contains(&p.0));
        }
    }

    #[test]
    fn windows_containing_is_inverse_of_window_panes(spec in window_spec(), p in 0u64..100) {
        let g = PaneGeometry::from_spec(&spec);
        for w in g.windows_containing(PaneId(p)) {
            prop_assert!(g.window_panes(w).contains(&p));
        }
        // And completeness: windows just outside do not contain it.
        let ws = g.windows_containing(PaneId(p));
        if ws.start > 0 {
            prop_assert!(!g.window_panes(ws.start - 1).contains(&p));
        }
        prop_assert!(!g.window_panes(ws.end).contains(&p));
    }

    #[test]
    fn lifespan_is_symmetric_and_window_bounded(spec in window_spec(), p in 0u64..60) {
        let g = PaneGeometry::from_spec(&spec);
        for q in g.lifespan(PaneId(p)) {
            prop_assert!(g.lifespan(PaneId(q)).contains(&p),
                "lifespan must be symmetric (p={p}, q={q})");
        }
        // Everything in some shared window is within the lifespan.
        for w in g.windows_containing(PaneId(p)) {
            for q in g.window_panes(w) {
                prop_assert!(g.lifespan(PaneId(p)).contains(&q));
            }
        }
    }

    #[test]
    fn analyzer_plans_respect_block_size(
        win_units in 1u64..100,
        slide_units in 1u64..100,
        rate in 0.0f64..10_000.0,
        block in 1u64..10_000_000
    ) {
        let (win, slide) = (win_units.max(slide_units) * 1000, win_units.min(slide_units) * 1000);
        let spec = WindowSpec::new(win, slide).unwrap();
        let analyzer = SemanticAnalyzer::new(block);
        let plan = analyzer.plan(&spec, &SourceStats { bytes_per_ms: rate });
        prop_assert!(plan.panes_per_file >= 1);
        let filesize = (rate * plan.pane_ms as f64).round().max(1.0) as u64;
        if plan.panes_per_file > 1 {
            // Undersized case: the packed file still fits in one block.
            prop_assert!(filesize * plan.panes_per_file <= block);
        }
    }

    #[test]
    fn replan_subdivision_is_bounded(scale in 0.0f64..1000.0) {
        let analyzer = SemanticAnalyzer::new(1024);
        let plan = analyzer.replan(&PartitionPlan::simple(10_000), scale);
        prop_assert!(plan.subpanes >= 1 && plan.subpanes <= 8);
        prop_assert!(plan.subpane_ms() >= 1);
        prop_assert!(plan.subpane_ms() * plan.subpanes <= 10_000);
    }

    #[test]
    fn packer_routes_every_record_to_its_pane(
        ts_list in proptest::collection::vec(0u64..1_000, 1..120),
        pane_ms in 10u64..200
    ) {
        let cluster = Cluster::with_nodes(3);
        let mut packer = DynamicDataPacker::new(
            &cluster,
            0,
            DfsPath::new("/pp").unwrap(),
            PartitionPlan::simple(pane_ms),
            leading_ts_fn(),
        );
        let lines: Vec<String> = ts_list.iter().map(|t| format!("{t},x")).collect();
        packer
            .ingest_batch(
                lines.iter().map(String::as_str),
                &TimeRange::new(EventTime(0), EventTime(1_000)),
            )
            .unwrap();
        packer.finish().unwrap();

        // Expected pane populations.
        let mut expect: BTreeMap<u64, u64> = BTreeMap::new();
        for t in &ts_list {
            *expect.entry(t / pane_ms).or_insert(0) += 1;
        }
        for (&pane, &count) in &expect {
            prop_assert_eq!(packer.manifest().pane_records(PaneId(pane)), count);
        }
        // Total bytes accounted: every line + newline.
        let total_bytes: u64 = expect
            .keys()
            .map(|&p| packer.manifest().pane_bytes(PaneId(p)))
            .sum();
        prop_assert_eq!(total_bytes, lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>());
        prop_assert_eq!(packer.dropped_records(), 0);
    }

    #[test]
    fn csv_field_is_split_nth(line in "[ab,,,αé€😀 ]{0,100}", idx in 0usize..12) {
        // Arbitrary UTF-8 with empty fields and multi-byte characters on
        // both sides of commas, across word and 16-byte chunk boundaries,
        // past four chunks.
        prop_assert_eq!(redoop_core::api::csv_field(&line, idx), line.split(',').nth(idx));
    }

    #[test]
    fn csv_fields_is_splitn(line in "[ab,,,αé€😀 ]{0,100}") {
        fn check<const N: usize>(line: &str) -> Result<(), proptest::test_runner::TestCaseError> {
            let parts: Vec<&str> = line.splitn(N + 1, ',').collect();
            let expect = (parts.len() == N + 1)
                .then(|| (<[&str; N]>::try_from(&parts[..N]).unwrap(), parts[N]));
            prop_assert_eq!(redoop_core::api::csv_fields::<N>(line), expect);
            Ok(())
        }
        check::<0>(&line)?;
        check::<1>(&line)?;
        check::<3>(&line)?;
        check::<4>(&line)?;
        check::<20>(&line)?;
    }

    #[test]
    fn leading_ts_is_field_parse(
        sign in "[+,-]{0,2}",
        digits in "[0-9]{0,22}",
        intruder in "[/:°-¹,+]{0,1}",
        at in 0usize..23,
        tail in "[0-9,a é٣+-]{0,6}",
    ) {
        // Signs, empty fields, runs long enough to overflow a u64, and
        // non-digits (multi-byte ones included) around the first comma;
        // one byte next to the digit range (`/`, `:`, and `°`..`¹`,
        // whose second byte is 0xB0–0xB9) dropped into any lane.
        let at = at.min(digits.len());
        let line = format!("{sign}{}{intruder}{}{tail}", &digits[..at], &digits[at..]);
        let expect = redoop_core::api::csv_field(&line, 0)
            .and_then(|f| f.parse::<u64>().ok())
            .map(EventTime);
        prop_assert_eq!((redoop_core::api::leading_ts_fn())(&line), expect);
    }

    #[test]
    fn parse_u64_is_str_parse(
        sign in "[+-]{0,2}",
        digits in "[0-9]{0,22}",
        intruder in "[/:°-¹,+ ]{0,1}",
        at in 0usize..23,
    ) {
        let at = at.min(digits.len());
        let text = format!("{sign}{}{intruder}{}", &digits[..at], &digits[at..]);
        prop_assert_eq!(redoop_core::api::parse_u64(&text), text.parse::<u64>().ok());
    }

    #[test]
    fn status_matrix_shift_never_forgets_incomplete_work(
        marks in proptest::collection::vec((0u64..12, 0u64..12), 0..80),
        window in 0u64..6
    ) {
        let geom = PaneGeometry::from_spec(&WindowSpec::new(300, 200).unwrap());
        let mut m = CacheStatusMatrix::new(2, geom);
        for (p, q) in &marks {
            m.mark_done(&[PaneId(*p), PaneId(*q)]);
        }
        let before: Vec<((u64, u64), bool)> = (0..12)
            .flat_map(|p| (0..12).map(move |q| ((p, q), ())))
            .map(|((p, q), _)| ((p, q), m.is_done(&[PaneId(p), PaneId(q)])))
            .collect();
        m.shift(window);
        for ((p, q), was_done) in before {
            if was_done {
                prop_assert!(
                    m.is_done(&[PaneId(p), PaneId(q)]),
                    "shift lost done cell ({p},{q})"
                );
            } else {
                // A not-done cell may only flip if both panes expired
                // (purged cells read as done).
                if m.is_done(&[PaneId(p), PaneId(q)]) {
                    prop_assert!(p < m.base(0).0 || q < m.base(1).0);
                }
            }
        }
    }

    #[test]
    fn profiler_forecast_tracks_constant_series(x in 1u64..100_000, n in 2usize..20) {
        let mut prof = ExecutionProfiler::with_defaults();
        for _ in 0..n {
            prof.record(Observation { exec_time: SimTime(x), input_bytes: 1 });
        }
        let f = prof.forecast(1).unwrap();
        let rel = (f.0 as f64 - x as f64).abs() / x as f64;
        prop_assert!(rel < 0.01, "forecast {f:?} vs {x}");
        prop_assert!((prof.scale_factor() - 1.0).abs() < 0.05);
    }

    #[test]
    fn overlap_roundtrips_through_with_overlap(win in 100u64..1_000_000, tenths in 0u64..10) {
        let overlap = tenths as f64 / 10.0;
        let spec = WindowSpec::with_overlap(win, overlap).unwrap();
        prop_assert!((spec.overlap() - overlap).abs() < 0.01 || win < 1000);
        prop_assert!(spec.slide >= 1 && spec.slide <= spec.win);
    }
}

proptest! {
    #[test]
    fn pane_header_roundtrips(
        entries in proptest::collection::vec((0u64..100_000, 0usize..10_000, 0usize..10_000), 1..30)
    ) {
        use redoop_core::packer::{decode_pane_header, encode_pane_header};
        let entries: Vec<(PaneId, usize, usize)> =
            entries.into_iter().map(|(p, s, c)| (PaneId(p), s, c)).collect();
        let line = encode_pane_header(&entries);
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(decode_pane_header(&line).unwrap(), entries);
    }

    #[test]
    fn with_pane_accepts_exactly_the_divisors(
        win_u in 1u64..60,
        slide_u in 1u64..60,
        pane in 1u64..200,
    ) {
        let (win, slide) = (win_u.max(slide_u) * 60, win_u.min(slide_u) * 60);
        let spec = WindowSpec::new(win, slide).unwrap();
        let ok = PaneGeometry::with_pane(&spec, pane).is_some();
        prop_assert_eq!(ok, win % pane == 0 && slide % pane == 0);
        if let Some(g) = PaneGeometry::with_pane(&spec, pane) {
            prop_assert_eq!(g.pane_ms * g.panes_per_window, win);
            prop_assert_eq!(g.pane_ms * g.panes_per_slide, slide);
        }
    }
}
