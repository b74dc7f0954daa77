//! Layer probes: each layer's public entry points replayed on inputs
//! captured from the traced pass — the largest sealed pane file, its
//! mapped buckets, the cache blobs left on the nodes, the live cache
//! controller, the end-of-run slot loads — and reported in unit cost
//! (ns per record, ns per call, MB/s), each the median of [`REPS`]
//! repetitions. Unit costs do not depend on how long the run lasted.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::Mutex;
use redoop_bench::setup::{self, NUM_REDUCERS};
use redoop_core::cache::controller::CacheController;
use redoop_core::cache::policy::CacheStats;
use redoop_core::cache::share::{SharedCacheEntry, SignatureDirectory};
use redoop_core::cache::CacheName;
use redoop_core::scheduler::{argmin_shortlist, cache_affinity, cache_holders};
use redoop_core::{
    leading_ts_fn, CachePolicyKind, DynamicDataPacker, PaneGeometry, PartitionPlan, SharedSource,
};
use redoop_dfs::{DfsPath, NodeId};
use redoop_mapred::exec::run_mapper_partitioned;
use redoop_mapred::grouped::{merge_sorted_groups, sort_group, Grouped};
use redoop_mapred::io::{decode_framed_grouped_block, encode_framed_grouped_block, GroupedBlock};
use redoop_mapred::{
    frame, ClusterSim, HashPartitioner, LineFile, MapContext, Mapper, SimTime, SmallKey, TaskKind,
    Writable,
};
use redoop_workloads::queries::{AggMapper, JoinMapper, JoinValue};

use crate::scenario::{Inputs, Live};
use crate::spec::{Family, Workload};
use crate::stats;
use crate::with_exec;
use std::hint::black_box;

/// Repetitions per probe.
pub const REPS: usize = 11;

/// Cache blobs and cache names a probe looks at, at most. Enough to be
/// representative on the fleet without making the probe a workload.
const SAMPLE: usize = 256;

/// Median nanoseconds per call of `op` over `reps` repetitions, after one
/// discarded warm-up call. Calls too short for the clock are batched.
fn median_ns(reps: usize, mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    op();
    let once = t.elapsed().as_nanos().max(1) as f64;
    let batch = ((200_000.0 / once).ceil() as usize).clamp(1, 1 << 16);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                op();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    stats::median(&samples)
}

/// Like [`median_ns`] for an `op` that works on a value `prepare` makes
/// off the clock (a fresh cluster, a cloned vector); the value is also
/// dropped off the clock.
fn median_ns_with<S>(
    reps: usize,
    mut prepare: impl FnMut() -> S,
    mut op: impl FnMut(&mut S),
) -> f64 {
    op(&mut prepare());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut input = prepare();
            let t = Instant::now();
            op(&mut input);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// Discards a probe's result without letting the compiler discard the
/// work that made it.
fn keep<T>(value: T) {
    black_box(value);
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9)
}

/// Where the probes put their results.
pub type Sink<'a> = &'a mut Vec<(&'static str, f64)>;

/// What the probes replay on.
pub struct Probes<'a> {
    pub w: &'a Workload,
    pub inputs: &'a Inputs,
    /// End state of a traced executor pass (on `hadoop_recompute`, of
    /// its cross-check executor).
    pub live: &'a mut Live,
    pub reps: usize,
}

impl Probes<'_> {
    /// Runs every probe.
    pub fn run(&mut self, out: Sink) {
        let reps = self.reps;
        let nodes = self.w.nodes;
        out.push((
            "dfs.cluster_build_ms",
            median_ns(reps, || keep(setup::cluster_with_nodes(nodes))) / 1e6,
        ));
        let pane = self.largest_pane_file();
        self.dfs(&pane, out);
        self.packer(out);
        let file = LineFile::new(pane.clone());
        out.push((
            "io.line_index_ns_per_line",
            median_ns(reps, || keep(LineFile::new(pane.clone()))) / file.line_count().max(1) as f64,
        ));
        let blobs = self.framed_blobs();
        match self.w.family {
            Family::Agg => {
                record_path(&AggMapper, &file, reps, out);
                codec::<SmallKey, u64>(&blobs, reps, out);
            }
            Family::Join => {
                record_path(&JoinMapper, &file, reps, out);
                codec::<SmallKey, JoinValue>(&blobs, reps, out);
            }
        }
        let bytes: usize = blobs.iter().map(Bytes::len).sum();
        let crc = median_ns(reps, || blobs.iter().for_each(|b| keep(frame::crc32(b))));
        let scan = median_ns(reps, || {
            blobs.iter().for_each(|b| keep(frame::salvage_scan(b)))
        });
        out.push(("frame.crc_mb_per_s", mb_per_s(bytes, crc)));
        out.push(("frame.salvage_scan_mb_per_s", mb_per_s(bytes, scan)));
        self.placement(out);
        self.cache_control(out);
        let exec = &mut self.live.execs[0];
        let audits: Vec<f64> = (0..21)
            .map(|_| {
                let t = Instant::now();
                black_box(with_exec!(&mut *exec, e => e.audit_caches()));
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        out.push(("heartbeat.audit_us", stats::median(&audits)));
    }

    /// Bytes of the largest pane file the packer sealed.
    fn largest_pane_file(&self) -> Bytes {
        let cluster = &self.live.cluster;
        let path = cluster
            .list("/panes")
            .into_iter()
            .max_by_key(|p| (cluster.len(p).unwrap_or(0), p.as_str().to_string()))
            .expect("an executor pass sealed pane files");
        cluster.read(&path).expect("sealed pane file is readable")
    }

    /// DFS block assembly on a pane file: write (split into blocks and
    /// replicate), first read (assemble the blocks), second read (served
    /// from the assembled-file memo).
    fn dfs(&self, pane: &Bytes, out: Sink) {
        let cluster = setup::cluster_with_nodes(self.w.nodes);
        let mut next = 0u32;
        let (mut write, mut read, mut reread) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..=self.reps {
            next += 1;
            let path = DfsPath::new(format!("/probe/f{next}")).expect("valid path");
            let t = Instant::now();
            cluster.create(&path, pane.clone()).expect("probe write");
            write.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            black_box(cluster.read(&path).expect("probe read"));
            read.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            black_box(cluster.read(&path).expect("probe reread"));
            reread.push(t.elapsed().as_nanos() as f64);
        }
        // The first round is the warm-up.
        for (name, samples) in [
            ("dfs.write_mb_per_s", &write),
            ("dfs.read_mb_per_s", &read),
            ("dfs.reread_mb_per_s", &reread),
        ] {
            out.push((name, mb_per_s(pane.len(), stats::median(&samples[1..]))));
        }
    }

    /// The bare packer on the workload's own batches; on the fleet, also
    /// the shared source's ingest, which `RecurringDeployment::step`
    /// hides inside the step.
    fn packer(&self, out: Sink) {
        let (inputs, nodes) = (self.inputs, self.w.nodes);
        let pane_ms = PaneGeometry::from_spec(&inputs.spec).pane_ms;
        let root = |s: usize| DfsPath::new(format!("/probe/panes-s{s}")).expect("valid path");
        let bare = median_ns_with(
            self.reps,
            || setup::cluster_with_nodes(nodes),
            |cluster| {
                for (s, batches) in inputs.sources.iter().enumerate() {
                    let plan = PartitionPlan::simple(pane_ms);
                    let mut packer =
                        DynamicDataPacker::new(cluster, s as u32, root(s), plan, leading_ts_fn());
                    for b in batches {
                        // `RecurringExecutor::ingest` collects the lines
                        // the same way before it calls the packer.
                        let lines: Vec<&str> = b.lines.iter().map(String::as_str).collect();
                        packer
                            .ingest_batch_indexed(&lines, &b.range)
                            .expect("bare packer ingest");
                    }
                }
            },
        );
        out.push((
            "packer.bare_records_per_s",
            inputs.records as f64 / (bare / 1e9),
        ));
        if self.live.shared.is_some() {
            let shared = median_ns_with(
                self.reps,
                || {
                    let cluster = setup::cluster_with_nodes(nodes);
                    SharedSource::new(&cluster, 0, "wcc", root(0), &[inputs.spec], leading_ts_fn())
                        .expect("probe shared source")
                },
                |source| {
                    for b in &inputs.sources[0] {
                        source
                            .ingest_batch(b.lines.iter().map(String::as_str), &b.range)
                            .expect("shared ingest");
                    }
                },
            );
            out.push(("packer.ingest_s", shared / 1e9));
        }
    }

    /// Framed cache blobs found on the nodes' local stores.
    fn framed_blobs(&self) -> Vec<Bytes> {
        let cluster = &self.live.cluster;
        let mut blobs = Vec::new();
        for n in 0..cluster.node_count() as u32 {
            let mut names = cluster.list_local(NodeId(n)).unwrap_or_default();
            names.sort();
            for name in names {
                match cluster.peek_local(NodeId(n), &name) {
                    Some(blob) if blob.starts_with(&frame::FRAME_MARKER) => blobs.push(blob),
                    _ => {}
                }
                if blobs.len() == SAMPLE {
                    return blobs;
                }
            }
        }
        blobs
    }

    /// Slot-load index and Eq. 4 on the end-of-run loads and caches.
    fn placement(&self, out: Sink) {
        let reps = self.reps;
        let live = &*self.live;
        let nodes = live.sim.node_count();
        // A private simulator with the run's final loads: `ClusterSim`
        // clones share state, and `assign` must not disturb the run's.
        let mut sim = ClusterSim::paper_testbed(nodes, live.sim.cost().clone());
        for (kind, slots) in [(TaskKind::Map, 6), (TaskKind::Reduce, 2)] {
            for (n, load) in live.sim.loads(kind).into_iter().enumerate() {
                for _ in 0..slots {
                    sim.assign(kind, NodeId(n as u32), load, SimTime::ZERO);
                }
            }
        }
        let skip = [0usize];
        out.push((
            "schedule.pick_min_ns",
            median_ns(reps, || {
                keep(sim.pick_min_clamped(TaskKind::Reduce, SimTime::ZERO, &skip))
            }),
        ));
        let floor = sim.horizon();
        let mut next = 0u32;
        out.push((
            "schedule.assign_ns",
            median_ns(reps, || {
                next = (next + 1) % nodes as u32;
                black_box(sim.assign(
                    TaskKind::Reduce,
                    NodeId(next),
                    floor,
                    SimTime::from_millis(1),
                ));
            }),
        ));

        let exec = &live.execs[0];
        let controller: &CacheController = with_exec!(exec, e => e.controller());
        let names = sample_names(controller);
        // A reduce-side task asks for a handful of caches.
        let tasks: Vec<&[CacheName]> = names.chunks(4).collect();
        let cost = live.sim.cost();
        let mut i = 0usize;
        out.push((
            "scheduler.affinity_ns",
            median_ns(reps, || {
                i += 1;
                let node = NodeId((i % nodes) as u32);
                black_box(cache_affinity(
                    controller,
                    tasks[i % tasks.len()],
                    node,
                    cost,
                ));
            }),
        ));
        out.push((
            "scheduler.shortlist_ns",
            median_ns(reps, || {
                i += 1;
                let caches = tasks[i % tasks.len()];
                let holders = cache_holders(controller, caches);
                let skip: Vec<usize> = holders.iter().map(|n| n.index()).collect();
                let other = sim.pick_min_clamped(TaskKind::Reduce, floor, &skip);
                black_box(argmin_shortlist(
                    &holders,
                    |_| true,
                    other,
                    |n| {
                        sim.node_load(TaskKind::Reduce, n).max(floor)
                            + cache_affinity(controller, caches, n, cost)
                    },
                ));
            }),
        ));
    }

    /// Controller lookups, the policy's victim choice, and the signature
    /// directory, on the caches the run left behind.
    fn cache_control(&self, out: Sink) {
        let reps = self.reps;
        let live = &*self.live;
        let controller: &CacheController = with_exec!(&live.execs[0], e => e.controller());
        let names = sample_names(controller);
        let mut i = 0usize;
        out.push((
            "controller.lookup_ns",
            median_ns(reps, || {
                i += 1;
                let name = &names[i % names.len()];
                black_box((controller.signature(name), controller.location(name)));
            }),
        ));

        let stats_of = |name: &CacheName| {
            let sig = controller
                .signature(name)
                .expect("sampled names are tracked");
            CacheStats {
                name: *name,
                bytes: sig.bytes,
                rebuild_bytes: sig.rebuild_bytes,
                remaining_votes: 1,
                remaining_uses: sig.remaining_uses,
                last_used: sig.last_used,
            }
        };
        // The fullest node's residents compete with one more of the same.
        let fullest = (0..live.cluster.node_count() as u32)
            .map(NodeId)
            .max_by_key(|&n| (controller.bytes_on(n), std::cmp::Reverse(n)))
            .expect("clusters have nodes");
        let residents: Vec<CacheStats> =
            controller.names_on(fullest).iter().map(stats_of).collect();
        let kind = if self.w.capped {
            CachePolicyKind::CostBased
        } else {
            CachePolicyKind::WindowLifespan
        };
        let mut policy = kind.build(live.sim.cost());
        out.push((
            "policy.victim_ns",
            match residents.first().copied() {
                Some(incoming) => median_ns(reps, || keep(policy.victim(&residents, &incoming))),
                None => 0.0,
            },
        ));

        // The fleet's own directory; elsewhere a private one holding the
        // same names, since only shared sources publish.
        let directory = match &live.shared {
            Some(shared) => shared.directory(),
            None => {
                let mut dir = SignatureDirectory::new();
                for name in &names {
                    let s = stats_of(name);
                    let entry = SharedCacheEntry {
                        node: controller.location(name).unwrap_or(NodeId(0)),
                        bytes: s.bytes,
                        rebuild_bytes: s.rebuild_bytes,
                        available_at: SimTime::ZERO,
                    };
                    dir.publish(*name, entry);
                }
                Arc::new(Mutex::new(dir))
            }
        };
        out.push((
            "share.lookup_ns",
            median_ns(reps, || {
                i += 1;
                black_box(directory.lock().lookup(&names[i % names.len()]));
            }),
        ));
    }
}

/// Up to [`SAMPLE`] materialized cache names, spread evenly over the
/// controller's (name-sorted) table.
fn sample_names(controller: &CacheController) -> Vec<CacheName> {
    let all = controller.all_cached();
    assert!(
        !all.is_empty(),
        "an executor pass leaves the last window's caches behind"
    );
    let stride = all.len().div_ceil(SAMPLE);
    all.into_iter().step_by(stride).collect()
}

/// Map parse + partition, then sort/group, on one pane file.
fn record_path<M: Mapper>(mapper: &M, file: &LineFile, reps: usize, out: Sink)
where
    M::VOut: Clone,
{
    let n = file.line_count();
    let mut scratch = MapContext::new();
    let mut map = || {
        run_mapper_partitioned(
            mapper,
            file.lines(0..n),
            &HashPartitioner,
            NUM_REDUCERS,
            &mut scratch,
        )
    };
    out.push((
        "exec.map_ns_per_record",
        median_ns(reps, || keep(map())) / n.max(1) as f64,
    ));
    let (buckets, _) = map();
    let bucket = buckets.into_iter().max_by_key(Vec::len).unwrap_or_default();
    let sort = median_ns_with(
        reps,
        || bucket.clone(),
        |pairs| keep(sort_group(std::mem::take(pairs))),
    );
    out.push((
        "grouped.sort_group_ns_per_pair",
        sort / bucket.len().max(1) as f64,
    ));
}

/// Grouped-block codec and the sorted-run merge, on the cache blobs.
fn codec<K: Writable + Ord, V: Writable>(blobs: &[Bytes], reps: usize, out: Sink) {
    let decoded: Vec<GroupedBlock<K, V>> = blobs
        .iter()
        .map(|b| decode_framed_grouped_block(b).expect("cache blobs of a clean run decode"))
        .collect();
    let groups = decoded
        .iter()
        .map(|d| d.grouped.group_count())
        .sum::<usize>()
        .max(1) as f64;
    let decode = median_ns(reps, || {
        for b in blobs {
            black_box(decode_framed_grouped_block::<K, V>(b).expect("decodes"));
        }
    });
    let encode = median_ns(reps, || {
        for d in &decoded {
            black_box(encode_framed_grouped_block(&d.grouped, 0, 0));
        }
    });
    out.push(("io.encode_ns_per_group", encode / groups));
    out.push(("io.decode_ns_per_group", decode / groups));

    // One reduce partition's sorted pane runs, as a window's merge sees them.
    let runs: Vec<Grouped<K, V>> = blobs
        .iter()
        .zip(&decoded)
        .filter(|(b, d)| {
            d.sorted && frame::decode_frames(b).is_ok_and(|f| f[0].header.partition == 0)
        })
        .map(|(_, d)| d.grouped.clone())
        .take(16)
        .collect();
    let merged_groups = runs.iter().map(Grouped::group_count).sum::<usize>().max(1) as f64;
    let merge = median_ns_with(
        reps,
        || runs.clone(),
        |r| keep(merge_sorted_groups(std::mem::take(r))),
    );
    out.push(("grouped.merge_ns_per_group", merge / merged_groups));
}
