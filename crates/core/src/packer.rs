//! The Dynamic Data Packer (paper §3.2).
//!
//! Executes the partition plan at load time: as each arriving batch file
//! is ingested, its records are routed into pane (or sub-pane) buffers,
//! and completed panes are sealed as DFS files using the paper's naming
//! convention:
//!
//! * oversize case — one pane per file: `S#P#` (e.g. `S1P4`),
//! * undersized case — several panes per file: `S#P#_#` (e.g. `S1P0_3`
//!   holds panes 0..=3), with a *header line* indexing each contained
//!   pane so a consumer can locate one pane without scanning the file,
//! * adaptive sub-panes — `S#P#s#` (e.g. `S1P4s1` is the second sub-pane
//!   of pane 4).
//!
//! The packer also maintains an in-memory [`PaneManifest`] (pane →
//! slices) that Redoop's executor uses to resolve window inputs, and
//! observed arrival statistics for the Semantic Analyzer.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use redoop_dfs::{Cluster, DfsPath};
use redoop_mapred::SimTime;

use crate::analyzer::{PartitionPlan, SourceStats};
use crate::error::{RedoopError, Result};
use crate::pane::PaneId;
use crate::time::{EventTime, TimeRange};

/// Extracts the event timestamp from one record line.
pub type TsFn = Arc<dyn Fn(&str) -> Option<EventTime> + Send + Sync>;

/// One physical slice of a pane: where the records of `(pane, sub)` live.
#[derive(Debug, Clone)]
pub struct PaneSlice {
    /// The logical pane.
    pub pane: PaneId,
    /// Sub-pane index within the pane (0 when the plan has no subdivision).
    pub sub: u32,
    /// Backing file.
    pub path: DfsPath,
    /// Line range within the file (after the header line, if any).
    pub lines: Range<usize>,
    /// Byte length of those lines (charged as the slice's read cost).
    pub bytes: u64,
    /// Record count.
    pub records: u64,
    /// Virtual time at which this slice is sealed and processable
    /// (event-time close of the sub-pane; 1 event ms == 1 virtual ms).
    pub ready_at: SimTime,
}

/// Pane → slices lookup for one source.
#[derive(Debug, Default, Clone)]
pub struct PaneManifest {
    slices: BTreeMap<u64, Vec<PaneSlice>>,
}

impl PaneManifest {
    /// Slices of pane `p` (empty if the pane holds no data or is not yet
    /// sealed).
    pub fn slices_of(&self, p: PaneId) -> &[PaneSlice] {
        self.slices.get(&p.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total records sealed for pane `p`.
    pub fn pane_records(&self, p: PaneId) -> u64 {
        self.slices_of(p).iter().map(|s| s.records).sum()
    }

    /// Total bytes sealed for pane `p`.
    pub fn pane_bytes(&self, p: PaneId) -> u64 {
        self.slices_of(p).iter().map(|s| s.bytes).sum()
    }

    /// Highest sealed pane id, if any.
    pub fn max_sealed_pane(&self) -> Option<PaneId> {
        self.slices.keys().next_back().map(|&p| PaneId(p))
    }

    fn push(&mut self, slice: PaneSlice) {
        self.slices.entry(slice.pane.0).or_default().push(slice);
    }
}

/// Header line of a multi-pane file: `#panes p:start:count;...`.
pub fn encode_pane_header(entries: &[(PaneId, usize, usize)]) -> String {
    let mut s = String::from("#panes ");
    for (i, (p, start, count)) in entries.iter().enumerate() {
        if i > 0 {
            s.push(';');
        }
        s.push_str(&format!("{}:{}:{}", p.0, start, count));
    }
    s
}

/// Parses a multi-pane header line back into `(pane, start_line, count)`.
pub fn decode_pane_header(line: &str) -> Result<Vec<(PaneId, usize, usize)>> {
    let body = line
        .strip_prefix("#panes ")
        .ok_or_else(|| RedoopError::BadRecord(format!("not a pane header: {line:?}")))?;
    let mut out = Vec::new();
    for part in body.split(';') {
        let mut it = part.split(':');
        let (p, s, c) = (it.next(), it.next(), it.next());
        match (p, s, c) {
            (Some(p), Some(s), Some(c)) => {
                let parse = |x: &str| {
                    x.parse::<u64>()
                        .map_err(|_| RedoopError::BadRecord(format!("bad header field {x:?}")))
                };
                out.push((PaneId(parse(p)?), parse(s)? as usize, parse(c)? as usize));
            }
            _ => return Err(RedoopError::BadRecord(format!("bad header part {part:?}"))),
        }
    }
    Ok(out)
}

/// Buffered records of one (pane, sub) awaiting seal: newline-terminated
/// text plus the record count. `text` is already the file body, so a
/// record is copied into it once and never again before the seal.
#[derive(Debug, Default)]
struct PaneBuffer {
    text: String,
    records: u64,
}

impl PaneBuffer {
    fn push_line(&mut self, line: &str) {
        self.text.push_str(line);
        self.text.push('\n');
        self.records += 1;
    }
}

/// The one definition of a record's `(pane, sub)` key under a plan, with
/// the plan's constants taken once instead of per record: one division
/// per record, and a second only when the plan has sub-panes.
#[derive(Debug, Clone, Copy)]
struct Locator {
    pane_ms: u64,
    sub_ms: u64,
    last_sub: u64,
}

impl Locator {
    fn new(plan: &PartitionPlan) -> Self {
        Locator { pane_ms: plan.pane_ms, sub_ms: plan.subpane_ms(), last_sub: plan.subpanes - 1 }
    }

    #[inline]
    fn key(&self, ts: EventTime) -> (u64, u32) {
        let pane = ts.0 / self.pane_ms;
        if self.last_sub == 0 {
            return (pane, 0);
        }
        let within = ts.0 % self.pane_ms;
        (pane, (within / self.sub_ms).min(self.last_sub) as u32)
    }
}

/// Result of one indexed batch ingestion: the sealed pane files plus the
/// accepted lines grouped by target pane (first-seen pane order; indices
/// are positions in the ingested batch, in arrival order).
#[derive(Debug, Default)]
pub struct IngestOutcome {
    /// Paths of newly written (sealed) pane files.
    pub written: Vec<DfsPath>,
    /// `(pane, accepted line indices)` per pane touched by the batch.
    pub pane_lines: Vec<(u64, Vec<u32>)>,
}

/// The Dynamic Data Packer for one data source.
pub struct DynamicDataPacker {
    cluster: Cluster,
    source_id: u32,
    root: DfsPath,
    plan: PartitionPlan,
    ts_fn: TsFn,
    manifest: PaneManifest,
    /// Buffered records per (pane, sub) awaiting seal.
    pending: BTreeMap<(u64, u32), PaneBuffer>,
    /// Panes already sealed (records arriving late for them are errors).
    sealed_through: Option<u64>,
    /// Observed arrival volume for rate estimation.
    observed_bytes: u64,
    observed_span_ms: u64,
    dropped_records: u64,
}

impl DynamicDataPacker {
    /// A packer writing pane files under `root` (e.g. `/redoop/panes/s1`).
    pub fn new(
        cluster: &Cluster,
        source_id: u32,
        root: DfsPath,
        plan: PartitionPlan,
        ts_fn: TsFn,
    ) -> Self {
        DynamicDataPacker {
            cluster: cluster.clone(),
            source_id,
            root,
            plan,
            ts_fn,
            manifest: PaneManifest::default(),
            pending: BTreeMap::new(),
            sealed_through: None,
            observed_bytes: 0,
            observed_span_ms: 0,
            dropped_records: 0,
        }
    }

    /// The active partition plan.
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// Installs a new plan (adaptive re-planning). Takes effect for panes
    /// not yet sealed; buffered records keep their existing sub-pane
    /// assignment only if the subdivision is unchanged, otherwise they are
    /// re-bucketed.
    pub fn set_plan(&mut self, plan: PartitionPlan) {
        if plan.subpanes != self.plan.subpanes {
            let old = std::mem::take(&mut self.pending);
            self.plan = plan;
            let locator = Locator::new(&self.plan);
            for buf in old.into_values() {
                for line in buf.text.lines() {
                    if let Some(ts) = (self.ts_fn)(line) {
                        self.pending.entry(locator.key(ts)).or_default().push_line(line);
                    }
                }
            }
        } else {
            self.plan = plan;
        }
    }

    /// The sealed-pane manifest.
    pub fn manifest(&self) -> &PaneManifest {
        &self.manifest
    }

    /// Records dropped for missing/bad timestamps.
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// Observed source statistics (bytes per event-time ms so far).
    pub fn observed_stats(&self) -> SourceStats {
        if self.observed_span_ms == 0 {
            return SourceStats { bytes_per_ms: 0.0 };
        }
        SourceStats { bytes_per_ms: self.observed_bytes as f64 / self.observed_span_ms as f64 }
    }

    /// Ingests one arriving batch covering `batch_range` (paper model:
    /// batch ranges are ordered and non-overlapping). Seals every
    /// (sub-)pane whose time range closed at or before `batch_range.end`,
    /// returning the paths of newly written pane files.
    pub fn ingest_batch<'l>(
        &mut self,
        lines: impl Iterator<Item = &'l str>,
        batch_range: &TimeRange,
    ) -> Result<Vec<DfsPath>> {
        let lines: Vec<&str> = lines.collect();
        Ok(self.ingest_batch_indexed(&lines, batch_range)?.written)
    }

    /// Like [`ingest_batch`], but also reports which batch lines were
    /// accepted into which pane, in arrival order. The pane assignment is
    /// a by-product of the packer's single timestamp parse per record, so
    /// an ingestion-path consumer (the executor's online delta combiner)
    /// can route the *same* parsed records without re-locating them —
    /// a record is parsed for routing at most once per pane lifetime.
    ///
    /// [`ingest_batch`]: DynamicDataPacker::ingest_batch
    pub fn ingest_batch_indexed(
        &mut self,
        lines: &[&str],
        batch_range: &TimeRange,
    ) -> Result<IngestOutcome> {
        // One pass locates, checks and copies each record while its line
        // is in cache, into batch-local buffers: a rejected batch drops
        // them and leaves the packer as it was, so its corrected retry is
        // not duplicated. A new key's buffer reserves the bytes of the
        // rest of the batch — all of them go to it in the common one-key
        // batch, and in a time-ordered batch the rest up to the next key
        // — and is shrunk to its length once a newer key appears or the
        // batch ends, so nothing regrows and a pane file keeps no slack.
        // A batch covers few keys: a linear scan from the last key hit
        // beats a tree lookup.
        let locator = Locator::new(&self.plan);
        let mut remaining: usize = lines.iter().map(|l| l.len() + 1).sum();
        let mut local: Vec<((u64, u32), PaneBuffer)> = Vec::new();
        let mut pane_lines: Vec<(u64, Vec<u32>)> = Vec::new();
        let (mut accepted_bytes, mut dropped) = (0u64, 0u64);
        let (mut last, mut last_pane) = (0usize, 0usize);
        for (idx, &line) in lines.iter().enumerate() {
            let size = line.len() + 1;
            remaining -= size;
            let Some(ts) = (self.ts_fn)(line) else {
                dropped += 1;
                continue;
            };
            if !batch_range.contains(ts) {
                return Err(RedoopError::BadRecord(format!(
                    "record at {ts} outside batch range {batch_range}"
                )));
            }
            let key = locator.key(ts);
            if self.sealed_through.is_some_and(|s| key.0 <= s) {
                return Err(RedoopError::BadRecord(format!(
                    "late record at {ts}: pane {} already sealed",
                    key.0
                )));
            }
            if local.get(last).is_none_or(|(k, _)| *k != key) {
                last = match local.iter().position(|(k, _)| *k == key) {
                    Some(at) => at,
                    None => {
                        // Only the newest key holds a reservation: the
                        // others shrink to what they hold (and one that
                        // is revisited grows as usual).
                        for (_, buf) in &mut local {
                            buf.text.shrink_to_fit();
                        }
                        let text = String::with_capacity(size + remaining);
                        local.push((key, PaneBuffer { text, records: 0 }));
                        local.len() - 1
                    }
                };
                last_pane = match pane_lines.iter().position(|(p, _)| *p == key.0) {
                    Some(at) => at,
                    None => {
                        pane_lines.push((key.0, Vec::new()));
                        pane_lines.len() - 1
                    }
                };
            }
            local[last].1.push_line(line);
            pane_lines[last_pane].1.push(idx as u32);
            accepted_bytes += size as u64;
        }
        for (key, mut buf) in local {
            match self.pending.entry(key) {
                Entry::Vacant(e) => {
                    buf.text.shrink_to_fit();
                    e.insert(buf);
                }
                // A pane continued from an earlier batch.
                Entry::Occupied(mut e) => {
                    let pending = e.get_mut();
                    pending.text.push_str(&buf.text);
                    pending.records += buf.records;
                }
            }
        }
        self.observed_bytes += accepted_bytes;
        self.dropped_records += dropped;
        self.observed_span_ms = self.observed_span_ms.max(batch_range.end.0);
        let written = self.seal_until(batch_range.end)?;
        Ok(IngestOutcome { written, pane_lines })
    }

    /// Seals everything buffered, regardless of completeness (end of
    /// stream).
    pub fn finish(&mut self) -> Result<Vec<DfsPath>> {
        self.seal_until(EventTime(u64::MAX))
    }

    /// Seals all (sub-)panes whose event range ends at or before `upto`.
    fn seal_until(&mut self, upto: EventTime) -> Result<Vec<DfsPath>> {
        let pane_ms = self.plan.pane_ms;
        let sub_ms = self.plan.subpane_ms();
        let complete_pane = if upto.0 == u64::MAX {
            u64::MAX
        } else {
            // Panes with end <= upto, i.e. pane id < upto/pane_ms.
            upto.0 / pane_ms
        };
        if complete_pane == 0 {
            return Ok(Vec::new());
        }
        let last_complete = complete_pane - 1; // inclusive, may be MAX-1 for finish()
        let last_complete = if upto.0 == u64::MAX {
            match self.pending.keys().next_back() {
                Some(&(p, _)) => p,
                None => return Ok(Vec::new()),
            }
        } else {
            last_complete
        };
        let first = self.sealed_through.map(|s| s + 1).unwrap_or(0);
        if first > last_complete {
            return Ok(Vec::new());
        }

        let mut written = Vec::new();
        // Chunk the complete panes into files of up to `panes_per_file`
        // consecutive panes (undersized case). A complete pane is never
        // held back waiting for group-mates: recurring windows must be
        // able to consume every pane that has closed.
        let ppf = self.plan.panes_per_file;
        let mut group_start = first;
        while group_start <= last_complete {
            let group_end = (group_start + ppf - 1).min(last_complete);
            written.extend(self.seal_group(group_start, group_end, pane_ms, sub_ms)?);
            self.sealed_through = Some(group_end);
            group_start = group_end + 1;
        }
        Ok(written)
    }

    /// Seals panes `lo..=hi` into physical files per the plan.
    fn seal_group(&mut self, lo: u64, hi: u64, pane_ms: u64, sub_ms: u64) -> Result<Vec<DfsPath>> {
        let sid = self.source_id;
        let mut written = Vec::new();
        if self.plan.subpanes > 1 || self.plan.panes_per_file <= 1 {
            // One file per (pane, sub): a whole pane's, named `S{sid}P{p}`,
            // when the plan does not subdivide.
            for p in lo..=hi {
                for sub in 0..self.plan.subpanes as u32 {
                    let buf = self.pending.remove(&(p, sub)).unwrap_or_default();
                    let name = if self.plan.subpanes > 1 {
                        format!("S{sid}P{p}s{sub}")
                    } else {
                        format!("S{sid}P{p}")
                    };
                    let path = self.root.join(&name)?;
                    let (bytes, records) = (buf.text.len() as u64, buf.records);
                    self.cluster.create(&path, Bytes::from(buf.text))?;
                    let ready_ms = p * pane_ms + (sub as u64 + 1) * sub_ms;
                    self.manifest.push(PaneSlice {
                        pane: PaneId(p),
                        sub,
                        path: path.clone(),
                        lines: 0..records as usize,
                        bytes,
                        records,
                        ready_at: SimTime::from_millis(ready_ms),
                    });
                    written.push(path);
                }
            }
        } else {
            // Undersized: one file for panes lo..=hi with a header.
            let name = if lo == hi {
                format!("S{sid}P{lo}")
            } else {
                format!("S{sid}P{lo}_{hi}")
            };
            let path = self.root.join(&name)?;
            let mut header_entries = Vec::new();
            let mut bufs = Vec::new();
            let mut per_pane: Vec<(u64, Range<usize>, u64, u64)> = Vec::new();
            let mut line_cursor = 0usize;
            for p in lo..=hi {
                let buf = self.pending.remove(&(p, 0)).unwrap_or_default();
                let (bytes, records) = (buf.text.len() as u64, buf.records);
                header_entries.push((PaneId(p), line_cursor, records as usize));
                // Manifest line ranges are absolute file lines: the header
                // occupies line 0, so the body starts at line 1.
                let abs = line_cursor + 1;
                per_pane.push((p, abs..abs + records as usize, bytes, records));
                line_cursor += records as usize;
                bufs.push(buf.text);
            }
            let header = encode_pane_header(&header_entries);
            let body_len: usize = bufs.iter().map(String::len).sum();
            let mut file_text = String::with_capacity(header.len() + 1 + body_len);
            file_text.push_str(&header);
            file_text.push('\n');
            for text in &bufs {
                file_text.push_str(text);
            }
            self.cluster.create(&path, Bytes::from(file_text))?;
            for (p, lines, bytes, records) in per_pane {
                self.manifest.push(PaneSlice {
                    pane: PaneId(p),
                    sub: 0,
                    path: path.clone(),
                    lines,
                    bytes,
                    records,
                    // A shared file is only on disk once its last pane
                    // closes; every contained pane becomes readable then.
                    ready_at: SimTime::from_millis((hi + 1) * pane_ms),
                });
            }
            written.push(path);
        }
        Ok(written)
    }
}

/// The ingest the one above replaced, kept as the oracle its tests
/// compare against: each record is located with the plan read per record
/// and appended to a per-key buffer that grows as it fills. It drops a
/// rejected batch whole, as the ingest above does.
#[cfg(test)]
impl DynamicDataPacker {
    fn locate(&self, line: &str) -> Option<((u64, u32), EventTime)> {
        let ts = (self.ts_fn)(line)?;
        let pane = ts.0 / self.plan.pane_ms;
        let within = ts.0 % self.plan.pane_ms;
        let sub = (within / self.plan.subpane_ms()).min(self.plan.subpanes - 1) as u32;
        Some(((pane, sub), ts))
    }

    fn ingest_batch_reference(
        &mut self,
        lines: &[&str],
        batch_range: &TimeRange,
    ) -> Result<IngestOutcome> {
        let mut local: Vec<((u64, u32), PaneBuffer)> = Vec::new();
        let mut pane_lines: Vec<(u64, Vec<u32>)> = Vec::new();
        let (mut observed, mut dropped) = (0u64, 0u64);
        for (idx, &line) in lines.iter().enumerate() {
            match self.locate(line) {
                Some((key, ts)) => {
                    if !batch_range.contains(ts) {
                        return Err(RedoopError::BadRecord(format!(
                            "record at {ts} outside batch range {batch_range}"
                        )));
                    }
                    if self.sealed_through.is_some_and(|s| key.0 <= s) {
                        return Err(RedoopError::BadRecord(format!(
                            "late record at {ts}: pane {} already sealed",
                            key.0
                        )));
                    }
                    observed += line.len() as u64 + 1;
                    match local.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, buf)) => buf.push_line(line),
                        None => {
                            let mut buf = PaneBuffer::default();
                            buf.push_line(line);
                            local.push((key, buf));
                        }
                    }
                    match pane_lines.iter_mut().find(|(p, _)| *p == key.0) {
                        Some((_, idxs)) => idxs.push(idx as u32),
                        None => pane_lines.push((key.0, vec![idx as u32])),
                    }
                }
                None => dropped += 1,
            }
        }
        for (key, buf) in local {
            let pending = self.pending.entry(key).or_default();
            pending.text.push_str(&buf.text);
            pending.records += buf.records;
        }
        self.observed_bytes += observed;
        self.dropped_records += dropped;
        self.observed_span_ms = self.observed_span_ms.max(batch_range.end.0);
        let written = self.seal_until(batch_range.end)?;
        Ok(IngestOutcome { written, pane_lines })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redoop_dfs::ClusterConfig;

    fn ts_fn() -> TsFn {
        Arc::new(|line: &str| {
            line.split(',').next().and_then(|f| f.parse::<u64>().ok()).map(EventTime)
        })
    }

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig { nodes: 3, block_size: 1 << 20, replication: 2 })
    }

    fn root() -> DfsPath {
        DfsPath::new("/panes/s1").unwrap()
    }

    #[test]
    fn oversize_naming_one_pane_per_file() {
        let c = cluster();
        let plan = PartitionPlan::simple(10);
        let mut packer = DynamicDataPacker::new(&c, 1, root(), plan, ts_fn());
        let lines = ["3,a", "12,b", "7,c", "15,d"];
        let written = packer
            .ingest_batch(lines.into_iter(), &TimeRange::new(EventTime(0), EventTime(20)))
            .unwrap();
        let names: Vec<String> =
            written.iter().map(|p| p.file_name().to_string()).collect();
        assert_eq!(names, vec!["S1P0", "S1P1"]);
        assert_eq!(packer.manifest().pane_records(PaneId(0)), 2);
        assert_eq!(packer.manifest().pane_records(PaneId(1)), 2);
        // Contents routed by timestamp.
        let p0 = c.read(&root().join("S1P0").unwrap()).unwrap();
        assert_eq!(std::str::from_utf8(&p0).unwrap(), "3,a\n7,c\n");
    }

    #[test]
    fn undersized_multi_pane_file_with_header() {
        let c = cluster();
        let plan = PartitionPlan { pane_ms: 10, panes_per_file: 3, subpanes: 1 };
        let mut packer = DynamicDataPacker::new(&c, 2, root(), plan, ts_fn());
        let lines = ["1,a", "11,b", "21,c", "22,d"];
        let written = packer
            .ingest_batch(lines.into_iter(), &TimeRange::new(EventTime(0), EventTime(30)))
            .unwrap();
        assert_eq!(written.len(), 1);
        assert_eq!(written[0].file_name(), "S2P0_2");
        let data = c.read(&written[0]).unwrap();
        let text = std::str::from_utf8(&data).unwrap();
        let header = text.lines().next().unwrap();
        let entries = decode_pane_header(header).unwrap();
        assert_eq!(
            entries,
            vec![(PaneId(0), 0, 1), (PaneId(1), 1, 1), (PaneId(2), 2, 2)]
        );
        // Manifest slices point into the shared file with absolute line
        // numbers (header is line 0, body starts at line 1).
        let s = packer.manifest().slices_of(PaneId(2));
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].lines, 3..5);
        assert_eq!(s[0].records, 2);
    }

    #[test]
    fn subpane_files_under_adaptive_plan() {
        let c = cluster();
        let plan = PartitionPlan { pane_ms: 10, panes_per_file: 1, subpanes: 2 };
        let mut packer = DynamicDataPacker::new(&c, 1, root(), plan, ts_fn());
        let lines = ["1,a", "6,b", "9,c"];
        let written = packer
            .ingest_batch(lines.into_iter(), &TimeRange::new(EventTime(0), EventTime(10)))
            .unwrap();
        let names: Vec<&str> = written.iter().map(|p| p.file_name()).collect();
        assert_eq!(names, vec!["S1P0s0", "S1P0s1"]);
        let slices = packer.manifest().slices_of(PaneId(0));
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].records, 1); // ts=1
        assert_eq!(slices[1].records, 2); // ts=6, 9
        // Sub-pane 0 is ready at its own close (5ms), before the pane ends.
        assert_eq!(slices[0].ready_at, SimTime::from_millis(5));
        assert_eq!(slices[1].ready_at, SimTime::from_millis(10));
    }

    #[test]
    fn panes_seal_only_when_complete() {
        let c = cluster();
        let mut packer =
            DynamicDataPacker::new(&c, 1, root(), PartitionPlan::simple(10), ts_fn());
        // Batch covers [0, 15): pane 0 complete, pane 1 still open.
        let w = packer
            .ingest_batch(["2,a", "12,b"].into_iter(), &TimeRange::new(EventTime(0), EventTime(15)))
            .unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].file_name(), "S1P0");
        // Next batch completes pane 1.
        let w = packer
            .ingest_batch(["17,c"].into_iter(), &TimeRange::new(EventTime(15), EventTime(20)))
            .unwrap();
        assert_eq!(w[0].file_name(), "S1P1");
        assert_eq!(packer.manifest().pane_records(PaneId(1)), 2);
    }

    #[test]
    fn empty_panes_are_materialized() {
        let c = cluster();
        let mut packer =
            DynamicDataPacker::new(&c, 1, root(), PartitionPlan::simple(10), ts_fn());
        let w = packer
            .ingest_batch(["25,a"].into_iter(), &TimeRange::new(EventTime(0), EventTime(30)))
            .unwrap();
        let names: Vec<&str> = w.iter().map(|p| p.file_name()).collect();
        assert_eq!(names, vec!["S1P0", "S1P1", "S1P2"]);
        assert_eq!(packer.manifest().pane_records(PaneId(0)), 0);
        assert_eq!(packer.manifest().pane_records(PaneId(2)), 1);
    }

    #[test]
    fn rejects_records_outside_batch_and_late_records() {
        let c = cluster();
        let mut packer =
            DynamicDataPacker::new(&c, 1, root(), PartitionPlan::simple(10), ts_fn());
        let err = packer
            .ingest_batch(["99,a"].into_iter(), &TimeRange::new(EventTime(0), EventTime(10)))
            .unwrap_err();
        assert!(matches!(err, RedoopError::BadRecord(_)));
        packer
            .ingest_batch(["5,a"].into_iter(), &TimeRange::new(EventTime(0), EventTime(10)))
            .unwrap();
        let err = packer
            .ingest_batch(["5,late"].into_iter(), &TimeRange::new(EventTime(0), EventTime(20)))
            .unwrap_err();
        assert!(matches!(err, RedoopError::BadRecord(_)));
    }

    #[test]
    fn a_rejected_batch_leaves_nothing_behind() {
        let c = cluster();
        let mut packer =
            DynamicDataPacker::new(&c, 1, root(), PartitionPlan::simple(10), ts_fn());
        let range = TimeRange::new(EventTime(0), EventTime(10));
        let err = packer.ingest_batch_indexed(&["garbage", "3,a", "99,b"], &range).unwrap_err();
        assert!(matches!(err, RedoopError::BadRecord(_)));
        assert!(packer.pending.is_empty());
        assert_eq!(packer.dropped_records(), 0);
        assert_eq!(packer.observed_stats().bytes_per_ms, 0.0);
        // The corrected retry is the batch's only copy.
        packer.ingest_batch_indexed(&["3,a", "9,b"], &range).unwrap();
        assert_eq!(packer.manifest().pane_records(PaneId(0)), 2);
        let p0 = c.read(&root().join("S1P0").unwrap()).unwrap();
        assert_eq!(&p0[..], b"3,a\n9,b\n");
    }

    /// Everything a caller or a later ingest can observe of a packer.
    fn observable(packer: &DynamicDataPacker, c: &Cluster) -> String {
        let pending: Vec<_> =
            packer.pending.iter().map(|(k, b)| (*k, b.text.clone(), b.records)).collect();
        let files: Vec<_> = packer
            .manifest
            .slices
            .values()
            .flatten()
            .map(|s| (s.path.to_string(), c.read(&s.path).unwrap().to_vec()))
            .collect();
        format!(
            "{pending:?} {:?} {files:?} {} {} {:?}",
            packer.manifest,
            packer.dropped_records,
            packer.observed_stats().bytes_per_ms.to_bits(),
            packer.sealed_through,
        )
    }

    proptest::proptest! {
        /// The ingest equals the reference batch by batch — outcome or error, files, manifest, `pane_lines`,
        /// counters and pending state — over panes that cross batches,
        /// sub-panes, multi-pane files, unparsable lines and rejected
        /// batches (a record past the batch end, or a batch that starts
        /// back inside a sealed pane), each retried the next step.
        #[test]
        fn ingest_equals_the_growing_buffer_reference(
            plan in (1u64..25, 1u64..4, 1u64..5),
            batches in proptest::collection::vec(
                (1u64..40, 0u64..4, proptest::collection::vec((0u64..1_000, 0u8..12), 0..30)),
                1..10,
            ),
        ) {
            let (pane_ms, panes_per_file, subpanes) = plan;
            let plan = PartitionPlan { pane_ms, panes_per_file, subpanes };
            let (c_new, c_ref) = (cluster(), cluster());
            let mut new = DynamicDataPacker::new(&c_new, 1, root(), plan, ts_fn());
            let mut reference = DynamicDataPacker::new(&c_ref, 1, root(), plan, ts_fn());
            let mut start = 0u64;
            for (len, back, records) in batches {
                // A batch that starts back inside a sealed pane is refused.
                let lo = if back == 0 { start.saturating_sub(pane_ms) } else { start };
                let range = TimeRange::new(EventTime(lo), EventTime(start + len));
                let lines: Vec<String> = records
                    .iter()
                    .map(|&(r, kind)| match kind {
                        0 => format!("x{r},garbage"),
                        1 => format!("{},past the end", start + len + r % 3),
                        _ => format!("{},r{r}", lo + r % (start + len - lo)),
                    })
                    .collect();
                let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
                let got = new.ingest_batch_indexed(&lines, &range);
                let want = reference.ingest_batch_reference(&lines, &range);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        proptest::prop_assert_eq!(got.written, want.written);
                        proptest::prop_assert_eq!(got.pane_lines, want.pane_lines);
                        start += len;
                    }
                    (Err(got), Err(want)) => {
                        proptest::prop_assert_eq!(got.to_string(), want.to_string());
                    }
                    (got, want) => proptest::prop_assert!(false, "{got:?} vs {want:?}"),
                }
                proptest::prop_assert_eq!(observable(&new, &c_new), observable(&reference, &c_ref));
            }
            proptest::prop_assert_eq!(new.finish().unwrap(), reference.finish().unwrap());
            proptest::prop_assert_eq!(observable(&new, &c_new), observable(&reference, &c_ref));
        }
    }

    #[test]
    fn unparsable_records_are_counted_not_fatal() {
        let c = cluster();
        let mut packer =
            DynamicDataPacker::new(&c, 1, root(), PartitionPlan::simple(10), ts_fn());
        packer
            .ingest_batch(["garbage", "3,ok"].into_iter(), &TimeRange::new(EventTime(0), EventTime(10)))
            .unwrap();
        assert_eq!(packer.dropped_records(), 1);
        assert_eq!(packer.manifest().pane_records(PaneId(0)), 1);
    }

    #[test]
    fn indexed_ingest_reports_accepted_lines_per_pane() {
        let c = cluster();
        let mut packer =
            DynamicDataPacker::new(&c, 1, root(), PartitionPlan::simple(10), ts_fn());
        let lines = ["3,a", "garbage", "12,b", "7,c", "15,d"];
        let out = packer
            .ingest_batch_indexed(&lines, &TimeRange::new(EventTime(0), EventTime(20)))
            .unwrap();
        // First-seen pane order; indices in arrival order; the bad line
        // is dropped (counted), not indexed.
        assert_eq!(out.pane_lines, vec![(0, vec![0, 3]), (1, vec![2, 4])]);
        assert_eq!(packer.dropped_records(), 1);
        let names: Vec<&str> = out.written.iter().map(|p| p.file_name()).collect();
        assert_eq!(names, vec!["S1P0", "S1P1"]);
    }

    #[test]
    fn finish_flushes_incomplete_panes() {
        let c = cluster();
        let mut packer =
            DynamicDataPacker::new(&c, 1, root(), PartitionPlan::simple(10), ts_fn());
        packer
            .ingest_batch(["12,a"].into_iter(), &TimeRange::new(EventTime(0), EventTime(15)))
            .unwrap();
        let w = packer.finish().unwrap();
        assert!(w.iter().any(|p| p.file_name() == "S1P1"));
    }

    #[test]
    fn observed_stats_estimate_rate() {
        let c = cluster();
        let mut packer =
            DynamicDataPacker::new(&c, 1, root(), PartitionPlan::simple(10), ts_fn());
        packer
            .ingest_batch(["1,aaaa", "2,bbbb"].into_iter(), &TimeRange::new(EventTime(0), EventTime(10)))
            .unwrap();
        let stats = packer.observed_stats();
        assert!(stats.bytes_per_ms > 0.0);
        // 2 lines x 7 bytes (incl newline) over 10 ms.
        assert!((stats.bytes_per_ms - 1.4).abs() < 1e-9);
    }

    #[test]
    fn header_roundtrip_rejects_garbage() {
        let entries = vec![(PaneId(0), 0, 5), (PaneId(1), 5, 0)];
        let line = encode_pane_header(&entries);
        assert_eq!(decode_pane_header(&line).unwrap(), entries);
        assert!(decode_pane_header("nope").is_err());
        assert!(decode_pane_header("#panes x:y").is_err());
    }
}
