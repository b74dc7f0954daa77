//! The evaluation's two recurring queries.
//!
//! * **Aggregation** (Fig. 6): count clicks per object over the window —
//!   the shape of the paper's "rank the movements of players" query:
//!   group by key, aggregate, merge pane partials by summation.
//! * **Binary join** (Fig. 7): position ⋈ speed per player and time
//!   bucket — the sensor-correlation join: readings match when they
//!   belong to the same player within the same [`JOIN_BUCKET_MS`]
//!   interval. The mapper tags each record with its source stream; the
//!   reducer emits the cross product of position × speed values per key
//!   (bounded by the bucket width, so output stays linear in the input).
//!
//! Keys (and short join payloads) are emitted as [`SmallKey`] — stored
//! inline up to 22 bytes, no heap allocation per record — with text and
//! binary codecs identical to `String`, so outputs and simulated byte
//! accounting are unchanged.

use std::ops::ControlFlow;

use redoop_dfs::Decimal;
use redoop_mapred::writable::Pair;
use redoop_mapred::{swar, MapContext, Mapper, ReduceContext, Reducer, SmallKey, SmallKeyBuilder};

use redoop_core::api::SumMerger;

/// Tag for join values: which stream a payload came from.
pub const TAG_POSITION: u8 = 0;
/// Tag for the speed stream.
pub const TAG_SPEED: u8 = 1;

/// Tagged join value: `(stream tag, payload)`.
pub type JoinValue = Pair<u8, SmallKey>;

/// Time-bucket width of the sensor join key: readings of the same
/// player within the same 10-second interval are correlated.
pub const JOIN_BUCKET_MS: u64 = 10_000;

/// Mapper of the aggregation query: WCC line → `(object, 1)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggMapper;

impl Mapper for AggMapper {
    type KOut = SmallKey;
    type VOut = u64;

    fn map(&self, line: &str, ctx: &mut MapContext<SmallKey, u64>) {
        // ts,client,object,region,bytes
        if let Some(obj) = redoop_core::api::csv_field(line, 2) {
            if !obj.is_empty() {
                ctx.emit(SmallKey::from(obj), 1);
            }
        }
    }
}

/// Reducer of the aggregation query: sums counts per object. Emits the
/// same key type it consumes, so per-pane partials merge by summation.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggReducer;

impl Reducer for AggReducer {
    type KIn = SmallKey;
    type VIn = u64;
    type KOut = SmallKey;
    type VOut = u64;

    fn reduce(&self, key: &SmallKey, values: &[u64], ctx: &mut ReduceContext<SmallKey, u64>) {
        ctx.emit(key.clone(), values.iter().sum());
    }
}

/// Mapper of the join query: self-describing FFG lines from either
/// stream → `(player, (tag, payload))`.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinMapper;

impl Mapper for JoinMapper {
    type KOut = SmallKey;
    type VOut = JoinValue;

    fn map(&self, line: &str, ctx: &mut MapContext<SmallKey, JoinValue>) {
        // Fewer than four fields is a malformed record: skip it, like a
        // Hadoop job would.
        let Some(([ts, player, kind], rest)) = redoop_core::api::csv_fields::<3>(line) else {
            return;
        };
        let Some(ts) = redoop_core::api::parse_u64(ts) else { return };
        let mut key = SmallKeyBuilder::new();
        key.push_str(player);
        key.push_char('@');
        key.push_str(Decimal::new(ts / JOIN_BUCKET_MS).as_str());
        let key = key.finish();
        match kind {
            "pos" => {
                // Positions hold commas (CSV coordinates); swap them for
                // ';' so the payload nests in one CSV-free field. Built
                // segment-wise into the inline key buffer — no
                // intermediate `String`.
                let mut payload = SmallKeyBuilder::new();
                let mut start = 0;
                swar::try_each_position(rest.as_bytes(), b',', |comma| {
                    payload.push_str(&rest[start..comma]);
                    payload.push_char(';');
                    start = comma + 1;
                    ControlFlow::<()>::Continue(())
                });
                payload.push_str(&rest[start..]);
                ctx.emit(key, Pair(TAG_POSITION, payload.finish()));
            }
            "spd" => ctx.emit(key, Pair(TAG_SPEED, SmallKey::from(rest))),
            _ => {}
        }
    }
}

/// Reducer of the join query: per player, joins every position reading
/// with every speed reading (equi-join cross product within the key
/// group), emitting `(player, "pos|spd")` tuples.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinReducer;

impl Reducer for JoinReducer {
    type KIn = SmallKey;
    type VIn = JoinValue;
    type KOut = SmallKey;
    type VOut = String;

    fn reduce(&self, key: &SmallKey, values: &[JoinValue], ctx: &mut ReduceContext<SmallKey, String>) {
        // Most key groups hold one stream only (a pane pair off the
        // window's diagonal shares no time bucket): nothing to join, and
        // nothing allocated to find that out.
        let count = |tag: u8| values.iter().filter(|v| v.0 == tag).count();
        let (n_pos, n_spd) = (count(TAG_POSITION), count(TAG_SPEED));
        if n_pos == 0 || n_spd == 0 {
            return;
        }
        let of = |tag: u8| values.iter().filter(move |v| v.0 == tag).map(|v| v.1.as_str());
        let mut payloads: Vec<&str> = Vec::with_capacity(n_pos + n_spd);
        payloads.extend(of(TAG_POSITION));
        payloads.extend(of(TAG_SPEED));
        let (positions, speeds) = payloads.split_at_mut(n_pos);
        // Deterministic output order regardless of shuffle arrival order.
        positions.sort_unstable();
        speeds.sort_unstable();
        // The cross product is the join's hot loop: every tuple is built
        // in one reused buffer and emitted by reference, so a text sink
        // pays no allocation per tuple.
        let mut joined = String::new();
        for pos in positions.iter() {
            for spd in speeds.iter() {
                joined.clear();
                joined.push_str(pos);
                joined.push('|');
                joined.push_str(spd);
                ctx.emit_ref(key, &joined);
            }
        }
    }
}

/// The aggregation mapper instance.
pub fn aggregation_mapper() -> AggMapper {
    AggMapper
}

/// The aggregation reducer instance.
pub fn aggregation_reducer() -> AggReducer {
    AggReducer
}

/// The aggregation finalization function: pane partials sum to window
/// totals.
pub fn agg_merger() -> SumMerger {
    SumMerger
}

/// The join mapper instance.
pub fn join_mapper() -> JoinMapper {
    JoinMapper
}

/// The join reducer instance.
pub fn join_reducer() -> JoinReducer {
    JoinReducer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_mapper_extracts_object() {
        let mut ctx = MapContext::new();
        AggMapper.map("123,c4,obj7,europe,9000", &mut ctx);
        AggMapper.map("junk", &mut ctx);
        let pairs = ctx.into_pairs();
        assert_eq!(pairs, vec![(SmallKey::from("obj7"), 1)]);
        assert!(pairs[0].0.is_inline(), "short object ids stay inline");
    }

    #[test]
    fn agg_reducer_sums() {
        let mut ctx = ReduceContext::new();
        AggReducer.reduce(&SmallKey::from("obj1"), &[1, 1, 1], &mut ctx);
        assert_eq!(ctx.into_pairs(), vec![(SmallKey::from("obj1"), 3)]);
    }

    #[test]
    fn join_mapper_tags_streams() {
        let mut ctx = MapContext::new();
        JoinMapper.map("5,p3,pos,100,200", &mut ctx);
        JoinMapper.map("6,p3,spd,440", &mut ctx);
        JoinMapper.map("7,p3,unknown,1", &mut ctx);
        JoinMapper.map("11000,p3,spd,7", &mut ctx); // next time bucket
        JoinMapper.map("nope", &mut ctx);
        let pairs = ctx.into_pairs();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0], (SmallKey::from("p3@0"), Pair(TAG_POSITION, SmallKey::from("100;200"))));
        assert_eq!(pairs[1], (SmallKey::from("p3@0"), Pair(TAG_SPEED, SmallKey::from("440"))));
        assert_eq!(pairs[2], (SmallKey::from("p3@1"), Pair(TAG_SPEED, SmallKey::from("7"))));
    }

    #[test]
    fn join_reducer_cross_product() {
        let mut ctx = ReduceContext::new();
        let values = vec![
            Pair(TAG_POSITION, SmallKey::from("1;2")),
            Pair(TAG_SPEED, SmallKey::from("10")),
            Pair(TAG_POSITION, SmallKey::from("3;4")),
            Pair(TAG_SPEED, SmallKey::from("20")),
        ];
        JoinReducer.reduce(&SmallKey::from("p1"), &values, &mut ctx);
        let out = ctx.into_pairs();
        assert_eq!(out.len(), 4, "2 positions x 2 speeds");
        assert!(out.contains(&(SmallKey::from("p1"), "1;2|10".to_string())));
        assert!(out.contains(&(SmallKey::from("p1"), "3;4|20".to_string())));
    }

    #[test]
    fn join_reducer_no_match_emits_nothing() {
        for tag in [TAG_POSITION, TAG_SPEED] {
            for mut ctx in [ReduceContext::new(), ReduceContext::text()] {
                let one_stream =
                    [Pair(tag, SmallKey::from("1;2")), Pair(tag, SmallKey::from("3;4"))];
                JoinReducer.reduce(&SmallKey::from("p1"), &one_stream, &mut ctx);
                assert_eq!(ctx.emitted(), 0);
                assert_eq!(ctx.into_text(), (String::new(), 0));
            }
        }
    }

    #[test]
    fn join_reducer_text_is_what_collecting_owned_tuples_encodes() {
        // The reference builds every tuple as an owned `(key, String)` and
        // encodes the collected list afterwards, as the reducer did before
        // it emitted by reference. Payloads and keys on both sides of the
        // inline limit, in unsorted arrival order, with an unknown tag.
        let long = "9".repeat(SmallKey::INLINE + 7);
        let values = vec![
            Pair(TAG_SPEED, SmallKey::from("20")),
            Pair(TAG_POSITION, SmallKey::from(format!("{long};{long}"))),
            Pair(7, SmallKey::from("ignored")),
            Pair(TAG_POSITION, SmallKey::from("1;2")),
            Pair(TAG_SPEED, SmallKey::from(long.as_str())),
            Pair(TAG_POSITION, SmallKey::from("1;2")),
        ];
        for key in [SmallKey::from("p1@7"), SmallKey::from(format!("{long}@7"))] {
            let of = |tag: u8| {
                let mut v: Vec<&str> =
                    values.iter().filter(|v| v.0 == tag).map(|v| v.1.as_str()).collect();
                v.sort_unstable();
                v
            };
            let mut expected: Vec<(SmallKey, String)> = Vec::new();
            for pos in of(TAG_POSITION) {
                for spd in of(TAG_SPEED) {
                    expected.push((key.clone(), format!("{pos}|{spd}")));
                }
            }
            assert_eq!(expected.len(), 6, "3 positions x 2 speeds");
            let (mut pairs, mut text) = (ReduceContext::new(), ReduceContext::text());
            JoinReducer.reduce(&key, &values, &mut pairs);
            JoinReducer.reduce(&key, &values, &mut text);
            assert_eq!(
                text.into_text(),
                (redoop_mapred::io::encode_kv_block(&expected), expected.len() as u64)
            );
            assert_eq!(pairs.into_pairs(), expected);
        }
    }

    /// `JoinMapper` as it parsed with `splitn(4, ',')` and `split(',')`:
    /// the reference the word-at-a-time parse must reproduce.
    fn split_join_map(line: &str, ctx: &mut MapContext<SmallKey, JoinValue>) {
        let mut fields = line.splitn(4, ',');
        let (Some(ts), Some(player), Some(kind), Some(rest)) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return;
        };
        let Ok(ts) = ts.parse::<u64>() else { return };
        let key = SmallKey::from(format!("{player}@{}", ts / JOIN_BUCKET_MS));
        match kind {
            "pos" => {
                let payload = rest.split(',').collect::<Vec<_>>().join(";");
                ctx.emit(key, Pair(TAG_POSITION, SmallKey::from(payload)));
            }
            "spd" => ctx.emit(key, Pair(TAG_SPEED, SmallKey::from(rest))),
            _ => {}
        }
    }

    #[test]
    fn join_mapper_emits_what_the_split_parse_did() {
        use crate::ffg::{FfgGenerator, Stream};
        use redoop_core::time::{EventTime, TimeRange};
        let mut gen = FfgGenerator::new(2014, 16, 0.005);
        let range = TimeRange::new(EventTime(0), EventTime(100_000));
        let mut lines = gen.batch(Stream::Position, &range, 1.0);
        lines.extend(gen.batch(Stream::Speed, &range, 1.0));
        let long = "9".repeat(SmallKey::INLINE + 5);
        let malformed = [
            "",
            ",",
            ",,",
            "5",
            "5,p3",
            "5,p3,pos",
            ",p3,pos,1,2",
            "5,,pos,1,2",
            "5,p3,,1",
            "5,p3,pos,",
            "5,p3,pos,,",
            "5,p3,pos,1,2,",
            "5,p3,spd,",
            "5,p3,spd,4,",
            "5,p3,pos,1,,2",
            "5,p3,pos,é€,😀,α",
            "5,p€,spd,😀",
            "x5,p3,spd,1",
            "18446744073709551616,p3,spd,1",
            "+5,p3,spd,1",
            "1234567890123,p3,spd,4",
            "12345678:,p3,spd,1",
            "1234/5678,p3,spd,1",
            "12345°,p3,spd,1",
        ];
        lines.extend(malformed.iter().map(|l| l.to_string()));
        lines.push(format!("5,{long},pos,{long},{long}"));
        assert!(lines.len() > 400);
        for line in &lines {
            let (mut got, mut want) = (MapContext::new(), MapContext::new());
            JoinMapper.map(line, &mut got);
            split_join_map(line, &mut want);
            assert_eq!(got.into_pairs(), want.into_pairs(), "{line:?}");
        }
    }

    #[test]
    fn join_mapper_key_is_player_at_decimal_bucket() {
        let long_player = "p".repeat(SmallKey::INLINE + 3);
        for (ts, player) in [(0u64, "p3"), (9_999, "p3"), (u64::MAX, "p3"), (123_456_789, &long_player)] {
            let mut ctx = MapContext::new();
            JoinMapper.map(&format!("{ts},{player},spd,1"), &mut ctx);
            let expected = format!("{player}@{}", ts / JOIN_BUCKET_MS);
            assert_eq!(ctx.into_pairs()[0].0, SmallKey::from(expected));
        }
    }

    #[test]
    fn join_values_roundtrip_through_text() {
        use redoop_mapred::Writable;
        let v = Pair(TAG_POSITION, SmallKey::from("100;200"));
        let text = v.to_text();
        assert_eq!(JoinValue::read(&text).unwrap(), v);
        // Wire-compatible with the String-payload encoding.
        assert_eq!(text, Pair(TAG_POSITION, "100;200".to_string()).to_text());
    }
}

/// Generic group-by mapper over one CSV field — paper Example 1's
/// "aggregate the log data ... over different dimensions, e.g., age,
/// gender, or country". For WCC lines (`ts,client,object,region,bytes`)
/// field 3 groups by region, field 1 by client, etc.
#[derive(Debug, Clone, Copy)]
pub struct DimensionMapper {
    /// 0-based CSV field index to group by.
    pub field: usize,
}

impl Mapper for DimensionMapper {
    type KOut = SmallKey;
    type VOut = u64;

    fn map(&self, line: &str, ctx: &mut MapContext<SmallKey, u64>) {
        if let Some(key) = redoop_core::api::csv_field(line, self.field) {
            if !key.is_empty() {
                ctx.emit(SmallKey::from(key), 1);
            }
        }
    }
}

#[cfg(test)]
mod dimension_tests {
    use super::*;

    #[test]
    fn dimension_mapper_selects_any_field() {
        let line = "123,c4,obj7,europe,9000";
        for (field, expect) in [(1usize, "c4"), (2, "obj7"), (3, "europe")] {
            let mut ctx = MapContext::new();
            DimensionMapper { field }.map(line, &mut ctx);
            assert_eq!(ctx.into_pairs(), vec![(SmallKey::from(expect), 1)]);
        }
        // Out-of-range fields emit nothing.
        let mut ctx = MapContext::new();
        DimensionMapper { field: 9 }.map(line, &mut ctx);
        assert_eq!(ctx.emitted(), 0);
    }
}
