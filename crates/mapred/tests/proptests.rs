//! Property-based tests for the MapReduce runtime's core data paths:
//! Writable codecs, line files, shuffle sort/group, partitioning, and
//! the cluster slot simulation.

use proptest::prelude::*;

use bytes::Bytes;
use redoop_dfs::NodeId;
use redoop_mapred::writable::Pair;
use redoop_mapred::{exec, io, ClusterSim, CostModel, HashPartitioner, LineFile, SimTime,
    TaskKind, Writable};

/// Strings that are legal as Writable fields (no tabs/newlines, and no
/// unit separator which composites reserve).
fn field() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 _.,:;|@#-]{0,24}"
}

proptest! {
    #[test]
    fn writable_string_roundtrips(s in field()) {
        let text = s.to_text();
        prop_assert_eq!(String::read(&text).unwrap(), s);
    }

    #[test]
    fn writable_numbers_roundtrip(a in any::<u64>(), b in any::<i64>(), f in any::<f64>().prop_filter("finite", |f| f.is_finite())) {
        prop_assert_eq!(u64::read(&a.to_text()).unwrap(), a);
        prop_assert_eq!(i64::read(&b.to_text()).unwrap(), b);
        prop_assert_eq!(f64::read(&f.to_text()).unwrap(), f);
    }

    #[test]
    fn writable_pair_roundtrips(a in field(), b in any::<u32>()) {
        let p = Pair(a, b);
        let text = p.to_text();
        prop_assert!(!text.contains('\t') && !text.contains('\n'));
        prop_assert_eq!(Pair::<String, u32>::read(&text).unwrap(), p);
    }

    #[test]
    fn kv_block_roundtrips(pairs in proptest::collection::vec((field(), any::<u64>()), 0..40)) {
        let text = io::encode_kv_block(&pairs);
        let decoded: Vec<(String, u64)> = io::decode_kv_block(&text).unwrap();
        prop_assert_eq!(decoded, pairs);
    }

    #[test]
    fn line_file_indexes_every_line(lines in proptest::collection::vec("[a-z0-9 ]{0,30}", 0..50)) {
        let mut text = String::new();
        for l in &lines {
            text.push_str(l);
            text.push('\n');
        }
        let f = LineFile::new(Bytes::from(text.clone()));
        prop_assert_eq!(f.line_count(), lines.len());
        for (i, l) in lines.iter().enumerate() {
            prop_assert_eq!(f.line(i), l.as_str());
        }
        // Byte accounting: the full range covers the whole buffer.
        prop_assert_eq!(f.byte_len_of(0..lines.len()), text.len());
    }

    #[test]
    fn sort_group_preserves_multiset_and_sorts(
        pairs in proptest::collection::vec((0u32..20, any::<u16>()), 0..100)
    ) {
        let groups = exec::sort_group(pairs.clone());
        // Keys strictly increasing (grouped), runs cover all values.
        prop_assert!(groups.is_strictly_sorted());
        for w in groups.runs.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        prop_assert_eq!(groups.records() as usize, groups.values.len());
        // Multiset preserved.
        let mut flat: Vec<(u32, u16)> = groups
            .iter()
            .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
            .collect();
        let mut orig = pairs;
        flat.sort_unstable();
        orig.sort_unstable();
        prop_assert_eq!(flat, orig);
    }

    #[test]
    fn partitioning_is_exhaustive_and_deterministic(
        keys in proptest::collection::vec(any::<u64>(), 1..200),
        r in 1usize..9
    ) {
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
        let buckets = exec::partition_pairs(pairs.clone(), r);
        prop_assert_eq!(buckets.len(), r);
        prop_assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), keys.len());
        // Same key always lands in the same bucket.
        let again = exec::partition_pairs(pairs, r);
        prop_assert_eq!(buckets, again);
    }

    #[test]
    fn hash_partitioner_is_stable_hash_modulo_reducers(
        key in field(),
        n in any::<u64>(),
        r in 1usize..70,
        shift in 0u32..20
    ) {
        // The mask a power-of-two `R` takes is the modulo every `R` is
        // defined by: the shortcut may never move a key.
        for r in [r, 1usize << shift] {
            prop_assert_eq!(
                HashPartitioner.partition(&key, r),
                (redoop_mapred::hasher::stable_hash(&key) % r as u64) as usize
            );
            prop_assert_eq!(
                HashPartitioner.partition(&n, r),
                (redoop_mapred::hasher::stable_hash(&n) % r as u64) as usize
            );
        }
    }

    #[test]
    fn cluster_sim_never_overlaps_slots(
        durations in proptest::collection::vec(1u64..50, 1..60),
        nodes in 1usize..4,
        slots in 1usize..3
    ) {
        let mut sim = ClusterSim::new(nodes, slots, 1, CostModel::default());
        let mut placements = Vec::new();
        for (i, d) in durations.iter().enumerate() {
            let node = NodeId((i % nodes) as u32);
            placements.push((node, sim.assign(
                TaskKind::Map,
                node,
                SimTime::ZERO,
                SimTime::from_secs(*d),
            )));
        }
        // Per node, at any task start instant, at most `slots` tasks are
        // running (instantaneous concurrency, not interval overlap).
        for (node, p) in &placements {
            let concurrent = placements
                .iter()
                .filter(|(n2, q)| n2 == node && q.start <= p.start && p.start < q.end)
                .count();
            prop_assert!(concurrent <= slots, "{concurrent} > {slots} slots");
        }
    }

    #[test]
    fn cost_model_is_monotone_in_bytes(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let cost = CostModel::default();
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(cost.hdfs_read(lo, true) <= cost.hdfs_read(hi, true));
        prop_assert!(cost.shuffle(lo) <= cost.shuffle(hi));
        prop_assert!(cost.sort(lo) <= cost.sort(hi));
        prop_assert!(cost.hdfs_write(lo) <= cost.hdfs_write(hi));
    }
}

/// `x`'s binary form, after checking that `read_bin` gives `x` back and
/// consumes exactly what `write_bin` wrote.
fn bin_roundtrip<T: Writable + PartialEq + std::fmt::Debug>(x: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    x.write_bin(&mut buf);
    let (back, used) = T::read_bin(&buf).unwrap();
    assert_eq!((&back, used), (x, buf.len()), "binary form must round-trip exactly");
    buf
}

/// Checks every invariant tying the binary cache codec
/// (`Writable::{write_bin, read_bin}`) to the text codec: exact
/// round-trip, agreement with the text path, and the text-equivalent
/// byte accounting the cost model charges.
fn check_bin_vs_text_codec<K, V>(pairs: Vec<(K, V)>)
where
    K: Writable + Clone + PartialEq + std::fmt::Debug,
    V: Writable + Clone + PartialEq + std::fmt::Debug,
{
    for (k, v) in &pairs {
        bin_roundtrip(k);
        bin_roundtrip(v);
    }
    // The text codec round-trips to the same pairs.
    let text = io::encode_kv_block(&pairs);
    let via_text: Vec<(K, V)> = io::decode_kv_block(&text).unwrap();
    assert_eq!(via_text, pairs, "binary and text codecs must agree");
    // Work is charged in text bytes whatever form the pairs are held
    // in, so simulated times cannot depend on the binary codec.
    assert_eq!(
        io::kv_block_text_bytes(&pairs),
        text.len() as u64,
        "charged bytes must equal the real text encoding's length"
    );
}

proptest! {
    #[test]
    fn bin_codec_matches_text_for_string_u64(
        pairs in proptest::collection::vec((field(), any::<u64>()), 0..40)
    ) {
        check_bin_vs_text_codec(pairs);
    }

    #[test]
    fn bin_codec_matches_text_for_signed_and_floats(
        pairs in proptest::collection::vec(
            (any::<i64>(), any::<f64>().prop_filter("finite", |f| f.is_finite())),
            0..40
        )
    ) {
        check_bin_vs_text_codec(pairs);
    }

    #[test]
    fn bin_codec_matches_text_for_small_ints_and_bool(
        a in proptest::collection::vec((any::<u8>(), any::<bool>()), 0..20),
        b in proptest::collection::vec((any::<i16>(), any::<u32>()), 0..20),
        c in proptest::collection::vec(
            (any::<f32>().prop_filter("finite", |f| f.is_finite()), any::<i8>()),
            0..20
        )
    ) {
        check_bin_vs_text_codec(a);
        check_bin_vs_text_codec(b);
        check_bin_vs_text_codec(c);
    }

    #[test]
    fn bin_codec_matches_text_for_pairs(
        pairs in proptest::collection::vec(
            ((field(), any::<u32>()), (any::<u16>(), field())),
            0..30
        )
    ) {
        let pairs: Vec<(Pair<String, u32>, Pair<u16, String>)> = pairs
            .into_iter()
            .map(|((a, b), (c, d))| (Pair(a, b), Pair(c, d)))
            .collect();
        check_bin_vs_text_codec(pairs);
    }

    #[test]
    fn grouped_block_roundtrips_and_detects_sortedness(
        pairs in proptest::collection::vec((field(), any::<u64>()), 0..60)
    ) {
        let flat_text_bytes = io::kv_block_text_bytes(&pairs);
        let groups = exec::sort_group(pairs);
        let records: u64 = groups.records();
        let blob = io::encode_framed_grouped_block(&groups, 3, 1);
        let block: io::GroupedBlock<String, u64> =
            io::decode_framed_grouped_block(&blob).unwrap();
        prop_assert_eq!(block.grouped, groups);
        prop_assert!(block.sorted, "sort_group output is a sorted run");
        prop_assert_eq!(block.records, records);
        // Byte accounting survives the grouped reshaping.
        prop_assert_eq!(block.text_bytes, flat_text_bytes);
    }

    /// A grouped-block body that is damaged *under* an intact checksum
    /// (an encoder bug, a collision) — truncated anywhere or with any
    /// single byte flipped, then re-framed — must either decode (with its
    /// structural invariants intact) or return `MrError::Codec`. Never a
    /// panic, never a huge bogus allocation: the CRC is the first line of
    /// defence, not the only one.
    #[test]
    fn corrupt_grouped_block_never_panics_or_lies(
        pairs in proptest::collection::vec((field(), any::<u64>()), 0..30),
        damage in any::<u64>(),
        flip in 1u64..256,
        truncate in any::<bool>(),
    ) {
        let groups = exec::sort_group(pairs);
        let blob = io::encode_framed_grouped_block(&groups, 3, 1);
        let body = redoop_mapred::frame::decode_frames(&blob).unwrap()[0].payload;
        let pos = (damage % body.len() as u64) as usize;
        let damaged: Vec<u8> = if truncate {
            body[..pos].to_vec()
        } else {
            let mut d = body.to_vec();
            d[pos] ^= flip as u8;
            d
        };
        let reframe = |body: &[u8]| {
            let mut reframed = Vec::new();
            redoop_mapred::frame::write_frame(&mut reframed, 3, 1, 0, 1, body);
            reframed
        };
        if let Ok(block) = io::decode_framed_grouped_block::<String, u64>(&reframe(&damaged)) {
            // Structural invariants always hold on accepted input.
            prop_assert_eq!(block.records as usize, block.grouped.values.len());
            prop_assert!(block.grouped.iter().all(|(_, vs)| !vs.is_empty()));
        }
        // The one damage no flip is sure to produce: a group of zero
        // values slipped between the first frame's groups, every header
        // count still consistent. A reducer must never see it.
        let frame_groups = groups.group_count().min(16);
        let at = (damage % (frame_groups as u64 + 1)) as usize;
        let mut body = vec![1u8];
        let records: u64 = (0..frame_groups).map(|i| groups.group_values(i).len() as u64).sum();
        redoop_mapred::writable::write_varint(&mut body, records);
        redoop_mapred::writable::write_varint(&mut body, 0);
        redoop_mapred::writable::write_varint(&mut body, frame_groups as u64 + 1);
        for i in 0..=frame_groups {
            if i == at {
                "hollow".to_string().write_bin(&mut body);
                redoop_mapred::writable::write_varint(&mut body, 0);
            }
            if i < frame_groups {
                groups.runs[i].0.write_bin(&mut body);
                let vs = groups.group_values(i);
                redoop_mapred::writable::write_varint(&mut body, vs.len() as u64);
                vs.iter().for_each(|v| v.write_bin(&mut body));
            }
        }
        let err = io::decode_framed_grouped_block::<String, u64>(&reframe(&body)).unwrap_err();
        prop_assert!(matches!(err, redoop_mapred::MrError::Codec(_)), "{:?}", err);
    }

    /// The framed encoding carries a CRC per frame, so its guarantee is
    /// strictly stronger: any single-byte flip or truncation either
    /// decodes to the *identical* block or errors — bit-exact or refused.
    #[test]
    fn corrupt_framed_block_decodes_identically_or_errors(
        pairs in proptest::collection::vec((field(), any::<u64>()), 0..30),
        damage in any::<u64>(),
        flip in 1u64..256,
        truncate in any::<bool>(),
    ) {
        let groups = exec::sort_group(pairs);
        let blob = io::encode_framed_grouped_block(&groups, 3, 1);
        let clean: io::GroupedBlock<String, u64> =
            io::decode_framed_grouped_block(&blob).unwrap();
        prop_assert_eq!(&clean.grouped, &groups);
        let pos = (damage % blob.len() as u64) as usize;
        let damaged: Vec<u8> = if truncate {
            blob[..pos].to_vec()
        } else {
            let mut d = blob.clone();
            d[pos] ^= flip as u8;
            d
        };
        match io::decode_framed_grouped_block::<String, u64>(&damaged) {
            Ok(block) => {
                prop_assert_eq!(block.grouped, clean.grouped);
                prop_assert_eq!(block.records, clean.records);
                prop_assert_eq!(block.text_bytes, clean.text_bytes);
                prop_assert_eq!(block.sorted, clean.sorted);
            }
            Err(e) => {
                prop_assert!(
                    matches!(e, redoop_mapred::MrError::Codec(_)),
                    "unexpected error kind: {e:?}"
                );
            }
        }
    }
}

proptest! {
    /// `SmallKey` must be indistinguishable from `String` everywhere the
    /// runtime can observe a key: text/binary codecs, ordering, and the
    /// stable hash that drives partition assignment.
    #[test]
    fn small_key_is_representation_transparent(a in field(), b in field(), r in 1usize..9) {
        use redoop_mapred::hasher::stable_hash;
        use redoop_mapred::SmallKey;
        let (ka, kb) = (SmallKey::from(a.as_str()), SmallKey::from(b.as_str()));
        prop_assert_eq!(ka.to_text(), a.to_text());
        let mut bin_k = Vec::new();
        let mut bin_s = Vec::new();
        ka.write_bin(&mut bin_k);
        a.write_bin(&mut bin_s);
        prop_assert_eq!(bin_k, bin_s);
        prop_assert_eq!(ka.text_len(), a.text_len());
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!(stable_hash(&ka), stable_hash(&a));
        prop_assert_eq!(
            HashPartitioner.partition(&ka, r),
            HashPartitioner.partition(&a, r)
        );
    }

    /// Pushing a `SmallKey` through the binary codec alongside values
    /// matches the `String`-keyed encoding byte for byte.
    #[test]
    fn small_key_shuffle_bucket_matches_string(
        pairs in proptest::collection::vec((field(), any::<u64>()), 0..40)
    ) {
        use redoop_mapred::SmallKey;
        let as_small: Vec<(SmallKey, u64)> =
            pairs.iter().map(|(k, v)| (SmallKey::from(k.as_str()), *v)).collect();
        for ((small, _), (string, _)) in as_small.iter().zip(&pairs) {
            let bin = bin_roundtrip(small);
            prop_assert_eq!(&bin, &bin_roundtrip(string));
            prop_assert_eq!(&String::read_bin(&bin).unwrap().0, string);
        }
        prop_assert_eq!(io::kv_block_text_bytes(&as_small), io::kv_block_text_bytes(&pairs));
    }

    #[test]
    fn scaled_cost_model_scales_work_not_startup(
        factor in 1.0f64..10_000.0,
        bytes in 1u64..1_000_000,
        records in 1u64..100_000,
    ) {
        let base = CostModel::default();
        let scaled = CostModel::scaled(factor);
        // Bandwidth-derived times scale ~linearly with the factor.
        let ratio = scaled.hdfs_read(bytes, true).0 as f64
            / base.hdfs_read(bytes, true).0.max(1) as f64;
        prop_assert!((ratio / factor - 1.0).abs() < 0.1 || bytes < 100,
            "read ratio {ratio} vs factor {factor}");
        // Per-record CPU scales too.
        let cpu_ratio =
            scaled.map_cpu(records).0 as f64 / base.map_cpu(records).0.max(1) as f64;
        prop_assert!((cpu_ratio / factor - 1.0).abs() < 0.1);
        // Start-up latencies are real constants.
        prop_assert_eq!(scaled.map_task_startup, base.map_task_startup);
        prop_assert_eq!(scaled.reduce_task_startup, base.reduce_task_startup);
        // Aggregate-record CPU is never scaled.
        prop_assert_eq!(scaled.aggregate_cpu(records), base.aggregate_cpu(records));
    }
}

/// One input run of the streaming merge-reduce: `(key, value count)`
/// groups over a small key space, so runs share keys. `sorted` runs go
/// through `sort_group`; the others keep their groups as generated —
/// grouped but unsorted, consecutive equal-key groups included.
fn merge_run() -> impl Strategy<Value = (Vec<(u8, usize)>, bool)> {
    (proptest::collection::vec((0u8..6, 1usize..4), 0..8), any::<bool>())
}

/// Builds the runs; values are `run * 1000 + i`, so every value is
/// distinct and any reordering shows.
fn build_runs(spec: &[(Vec<(u8, usize)>, bool)]) -> Vec<redoop_mapred::Grouped<u8, u64>> {
    spec.iter()
        .enumerate()
        .map(|(run, (groups, sorted))| {
            let mut next = run as u64 * 1000;
            let mut raw = redoop_mapred::Grouped::new();
            for &(key, n) in groups {
                raw.push_group(key, (0..n as u64).map(|i| next + i));
                next += n as u64;
            }
            if *sorted { exec::sort_group(raw.into_pairs()) } else { raw }
        })
        .collect()
}

/// Emits each group whole, then once per value: the output pins group
/// boundaries, group order and value order.
fn spelling_reducer() -> impl redoop_mapred::Reducer<KIn = u8, VIn = u64, KOut = u8, VOut = String> {
    redoop_mapred::ClosureReducer::new(
        |k: &u8, vs: &[u64], ctx: &mut redoop_mapred::ReduceContext<u8, String>| {
            ctx.emit(*k, format!("{vs:?}"));
            for v in vs {
                ctx.emit_ref(k, &v.to_string());
            }
        },
    )
}

proptest! {
    /// The streaming merge-reduce over borrowed runs hands the reducer
    /// exactly the groups — boundaries, order, value order, record count —
    /// of the materialised merge, for 0–5 runs of any shape.
    #[test]
    fn streamed_merge_reduce_matches_materialised_merge(
        spec in proptest::collection::vec(merge_run(), 0..6)
    ) {
        use redoop_mapred::{ReduceContext, Reducer};
        let runs = build_runs(&spec);
        let reducer = spelling_reducer();
        let merged = exec::merge_sorted_groups(runs.clone());
        let mut expected = ReduceContext::new();
        for (k, vs) in merged.iter() {
            reducer.reduce(k, vs, &mut expected);
        }
        let refs: Vec<&redoop_mapred::Grouped<u8, u64>> = runs.iter().collect();
        let mut streamed = ReduceContext::new();
        let records = exec::run_reducer(&reducer, &refs, &mut streamed);
        prop_assert_eq!(records, merged.records());
        prop_assert_eq!(streamed.into_pairs(), expected.into_pairs());
    }

    /// The shared-key walk over two sorted runs hands over exactly the
    /// groups of the streamed merge whose key both runs hold — same
    /// order, same values in the same order — and nothing else.
    #[test]
    fn shared_key_walk_is_the_merge_restricted_to_shared_keys(
        left in merge_run(), right in merge_run()
    ) {
        let runs = build_runs(&[(left.0, true), (right.0, true)]);
        let (l, r) = (&runs[0], &runs[1]);
        let both = |k: &u8| l.iter().any(|(x, _)| x == k) && r.iter().any(|(x, _)| x == k);
        let mut expected = Vec::new();
        exec::for_each_merged_group(&[l, r], |k, vs| {
            if both(k) {
                expected.push((*k, vs.to_vec()));
            }
        });
        let mut walked = Vec::new();
        redoop_mapred::grouped::for_each_shared_group(l, r, |k, vs| walked.push((*k, vs.to_vec())));
        prop_assert_eq!(walked, expected);
    }

    /// For the same emits, the text sink holds byte for byte the text
    /// encoding of what the collecting sink holds, and the same count.
    #[test]
    fn text_sink_matches_encoding_the_collected_pairs(
        spec in proptest::collection::vec(merge_run(), 0..6)
    ) {
        use redoop_mapred::ReduceContext;
        let runs = build_runs(&spec);
        let refs: Vec<&redoop_mapred::Grouped<u8, u64>> = runs.iter().collect();
        let reducer = spelling_reducer();
        let (mut collected, mut text) = (ReduceContext::new(), ReduceContext::text());
        exec::run_reducer(&reducer, &refs, &mut collected);
        exec::run_reducer(&reducer, &refs, &mut text);
        prop_assert_eq!(text.emitted(), collected.emitted());
        let pairs = collected.into_pairs();
        prop_assert_eq!(text.into_text(), (io::encode_kv_block(&pairs), pairs.len() as u64));
    }
}

/// The stable sort + group a [`RunBuilder`] must reproduce.
fn stable_sort_groups(pairs: &[(u64, u64)]) -> redoop_mapred::Grouped<u64, u64> {
    let mut sorted = pairs.to_vec();
    sorted.sort_by_key(|p| p.0);
    exec::group_consecutive(sorted)
}

/// `pairs` cut at `cuts` (each taken modulo the length) into 1–7
/// consecutive pieces, empty ones included.
fn cut_into_pieces<'a>(pairs: &'a [(u64, u64)], cuts: &[usize]) -> Vec<&'a [(u64, u64)]> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (pairs.len() + 1)).collect();
    at.extend([0, pairs.len()]);
    at.sort_unstable();
    at.windows(2).map(|w| &pairs[w[0]..w[1]]).collect()
}

/// Few keys, so pieces share them; up to 200 pairs, so `sort_group`'s
/// tiny-run sort and the builder are both on.
fn duplicate_heavy_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..24, any::<u64>()), 0..200)
}

/// Drops every third key, sums the next, keeps first and last of the rest.
fn uneven_combiner() -> impl redoop_mapred::Combiner<u64, u64> {
    redoop_mapred::combiner::ClosureCombiner::new(|k: &u64, vs: &[u64]| match k % 3 {
        0 => vec![],
        1 => vec![vs.iter().fold(0u64, |a, v| a.wrapping_add(*v))],
        _ => vec![vs[0], vs[vs.len() - 1]],
    })
}

proptest! {
    /// One builder per piece, merged in order with `absorb`, is the
    /// stable sort of the whole — whether the pairs came with a hash
    /// (the partitioner's) or were hashed by the builder, and that is
    /// what `sort_group` returns too.
    #[test]
    fn builders_merged_with_absorb_equal_the_stable_sort(
        pairs in duplicate_heavy_pairs(),
        cuts in proptest::collection::vec(any::<usize>(), 0..6)
    ) {
        use redoop_mapred::grouped::RunBuilder;
        let pieces = cut_into_pieces(&pairs, &cuts);
        prop_assert!((1..=7).contains(&pieces.len()));
        let mut hashed: RunBuilder<u64, u64> = RunBuilder::new();
        let mut unhashed: RunBuilder<u64, u64> = RunBuilder::new();
        for piece in pieces {
            let mut part = RunBuilder::new();
            for &(k, v) in piece {
                part.push_hashed(HashPartitioner.hash(&k), k, v);
            }
            hashed.absorb(part);
            unhashed.absorb(piece.iter().copied().collect());
        }
        prop_assert_eq!(hashed.len(), pairs.len());
        prop_assert_eq!(hashed.text_bytes_since(0), io::kv_block_text_bytes(&pairs));
        let expected = stable_sort_groups(&pairs);
        prop_assert_eq!(&hashed.into_run(), &expected);
        prop_assert_eq!(&unhashed.into_run(), &expected);
        prop_assert_eq!(&exec::sort_group(pairs), &expected);
    }

    /// Folding each piece's tail as it ends equals `combine` applied,
    /// piece by piece, to the piece's stable-sort groups — records, text
    /// bytes and the finished run — and a key whose every value was
    /// folded away leaves no run behind for the block codec to reject.
    #[test]
    fn a_fold_of_each_tail_equals_combine_per_piece(
        pairs in duplicate_heavy_pairs(),
        cuts in proptest::collection::vec(any::<usize>(), 0..6)
    ) {
        use redoop_mapred::grouped::RunBuilder;
        use redoop_mapred::Combiner;
        let combiner = uneven_combiner();
        let mut builder: RunBuilder<u64, u64> = RunBuilder::new();
        let mut combined: Vec<(u64, u64)> = Vec::new();
        for piece in cut_into_pieces(&pairs, &cuts) {
            let (mark, before) = (builder.len(), combined.len());
            for &(k, v) in piece {
                builder.push(k, v);
            }
            builder.fold_tail(mark, &combiner);
            for (k, vs) in stable_sort_groups(piece).iter() {
                combined.extend(combiner.combine(k, vs).into_iter().map(|v| (*k, v)));
            }
            prop_assert_eq!(builder.len() - mark, combined.len() - before);
            prop_assert_eq!(
                builder.text_bytes_since(mark),
                io::kv_block_text_bytes(&combined[before..])
            );
        }
        let run = builder.into_run();
        prop_assert_eq!(&run, &stable_sort_groups(&combined));
        prop_assert!(run.runs.iter().all(|(k, _, len)| *len > 0 && k % 3 != 0));
        let stored = io::encode_framed_grouped_block(&run, 0, 0);
        prop_assert_eq!(io::decode_framed_grouped_block::<u64, u64>(&stored).unwrap().grouped, run);
    }
}
