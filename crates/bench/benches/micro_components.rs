//! Host-time microbenchmarks of the hot components: shuffle sort/group,
//! partitioning, the stable hash, the cache status matrix, pane packing,
//! line-file indexing, the frame CRC / salvage scan, the framed
//! grouped-block codec, and the join's pair stage. These measure *real*
//! CPU time (unlike the figure benches, which surface simulated time).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use redoop_core::cache::status_matrix::CacheStatusMatrix;
use redoop_core::packer::DynamicDataPacker;
use redoop_core::prelude::*;
use redoop_core::PartitionPlan;
use redoop_dfs::{Cluster, DfsPath};
use redoop_mapred::hasher::stable_hash;
use redoop_mapred::io::{self as mrio, GroupedBlock};
use redoop_mapred::{exec, frame, HashPartitioner, LineFile, Mapper};
use redoop_workloads::queries::{JoinMapper, JoinReducer};

fn pairs(n: usize) -> Vec<(String, u64)> {
    (0..n).map(|i| (format!("key{}", (i * 2_654_435_761) % 997), i as u64)).collect()
}

fn bench_sort_group(c: &mut Criterion) {
    let input = pairs(10_000);
    c.bench_function("exec/sort_group_10k", |b| {
        b.iter_batched(|| input.clone(), exec::sort_group, BatchSize::SmallInput)
    });
}

fn bench_partition(c: &mut Criterion) {
    let input = pairs(10_000);
    c.bench_function("exec/partition_10k_x8", |b| {
        b.iter_batched(
            || input.clone(),
            |p| exec::partition_pairs(p, &HashPartitioner, 8),
            BatchSize::SmallInput,
        )
    });
}

fn bench_stable_hash(c: &mut Criterion) {
    c.bench_function("hasher/stable_hash_str", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            stable_hash(&format!("player{i}"))
        })
    });
}

fn bench_status_matrix(c: &mut Criterion) {
    let geom = PaneGeometry::from_spec(&WindowSpec::new(2_000_000, 200_000).unwrap());
    c.bench_function("cache/status_matrix_window_cycle", |b| {
        b.iter(|| {
            let mut m = CacheStatusMatrix::new(2, geom);
            for w in 0..10u64 {
                for p in geom.window_panes(w) {
                    for q in geom.window_panes(w) {
                        m.mark_done(&[PaneId(p), PaneId(q)]);
                    }
                }
                m.shift(w);
            }
            m.stored_cells()
        })
    });
}

fn bench_packer(c: &mut Criterion) {
    let lines: Vec<String> = (0..5_000u64).map(|i| format!("{},{}", i % 100_000, i)).collect();
    c.bench_function("packer/ingest_5k_records", |b| {
        let mut run = 0u64;
        b.iter(|| {
            run += 1;
            let cluster = Cluster::with_nodes(4);
            let mut packer = DynamicDataPacker::new(
                &cluster,
                0,
                DfsPath::new(format!("/p{run}")).unwrap(),
                PartitionPlan::simple(10_000),
                redoop_core::leading_ts_fn(),
            );
            packer
                .ingest_batch(
                    lines.iter().map(String::as_str),
                    &TimeRange::new(EventTime(0), EventTime(100_000)),
                )
                .unwrap()
                .len()
        })
    });
}

fn bench_line_file(c: &mut Criterion) {
    let text: String = (0..20_000).map(|i| format!("{i},field1,field2\n")).collect();
    let data = bytes::Bytes::from(text);
    c.bench_function("io/line_file_index_20k", |b| {
        b.iter(|| LineFile::new(data.clone()).line_count())
    });
}

/// A 64 KiB frame stream of 1 KiB payloads, like a large cache blob.
fn framed_64k() -> Vec<u8> {
    let mut buf = Vec::new();
    let payload: Vec<u8> = (0..1024u32).map(|i| (i * 31 + 7) as u8).collect();
    let total = (64 * 1024 / (payload.len() + frame::FRAME_OVERHEAD)) as u32;
    for seq in 0..total {
        frame::write_frame(&mut buf, 3, 1, seq, total, &payload);
    }
    buf
}

fn bench_frame(c: &mut Criterion) {
    let buf = framed_64k();
    c.bench_function("frame/crc32_64k", |b| b.iter(|| frame::crc32(&buf)));
    // Damage the first frame so the scan slides byte-by-byte across it
    // before resynchronizing on the next marker.
    let mut damaged = buf.clone();
    damaged[40] ^= 0xFF;
    c.bench_function("frame/salvage_scan_64k", |b| b.iter(|| frame::salvage_scan(&damaged)));
}

fn bench_grouped_codec(c: &mut Criterion) {
    let groups = exec::sort_group(pairs(10_000));
    let blob = mrio::encode_framed_grouped_block(&groups, 3, 1);
    c.bench_function("io/encode_framed_grouped_block", |b| {
        b.iter(|| mrio::encode_framed_grouped_block(&groups, 3, 1))
    });
    c.bench_function("io/decode_framed_grouped_block", |b| {
        b.iter(|| mrio::decode_framed_grouped_block::<String, u64>(&blob).unwrap())
    });
}

type JoinKey = <JoinMapper as Mapper>::KOut;
type JoinVal = <JoinMapper as Mapper>::VOut;

/// One partition's cold join window as the executor's pair stage runs
/// it: decode the 8 + 8 framed reduce-input runs once each, then merge,
/// reduce and text-encode all 64 pane pairs over the decoded runs.
fn bench_pair_stage(c: &mut Criterion) {
    // FFG-like inputs: 500 readings per pane and stream from 16 players,
    // a pane spanning 25 join buckets — so, as in the real workload, only
    // same-pane pairs share keys and most pairs merge to an empty output.
    let input = |stream: &str, pane: u64| -> Vec<u8> {
        let mut ctx = redoop_mapred::MapContext::new();
        for i in 0..500u64 {
            let ts = pane * 250_000 + i * 500;
            let rest = if stream == "pos" { "100,200" } else { "440" };
            JoinMapper.map(&format!("{ts},p{},{stream},{rest}", i % 16), &mut ctx);
        }
        mrio::encode_framed_grouped_block(&exec::sort_group(ctx.into_pairs()), pane, 0)
    };
    let blobs: Vec<[Vec<u8>; 2]> = (0..8).map(|p| [input("pos", p), input("spd", p)]).collect();
    c.bench_function("join/pair_stage_8x8", |b| {
        b.iter(|| {
            let decoded: Vec<[GroupedBlock<JoinKey, JoinVal>; 2]> = blobs
                .iter()
                .map(|[l, r]| {
                    [
                        mrio::decode_framed_grouped_block(l).unwrap(),
                        mrio::decode_framed_grouped_block(r).unwrap(),
                    ]
                })
                .collect();
            let mut out_bytes = 0usize;
            for [left, _] in &decoded {
                for [_, right] in &decoded {
                    let groups = exec::merge_sorted_group_refs(&[&left.grouped, &right.grouped]);
                    let (out, _) = exec::run_reducer(&JoinReducer, &groups);
                    out_bytes += mrio::encode_kv_block(&out).len();
                }
            }
            out_bytes
        })
    });
}

criterion_group!(
    benches,
    bench_sort_group,
    bench_partition,
    bench_stable_hash,
    bench_status_matrix,
    bench_packer,
    bench_line_file,
    bench_frame,
    bench_grouped_codec,
    bench_pair_stage
);
criterion_main!(benches);
