//! Synthetic football-field sensor (FFG) workload.
//!
//! The real FFG dataset comes from the RedFIR real-time tracking system
//! in the Nuremberg stadium: sensors in balls and players' boots emit
//! position/velocity readings at high frequency. The paper joins sensor
//! streams on the entity id (Fig. 7). This generator emits two such
//! streams deterministically:
//!
//! * positions: `ts,p<player>,pos,<x>,<y>`
//! * speeds:    `ts,p<player>,spd,<v>`
//!
//! Both streams share the player-id key space so a window join on player
//! id produces position×speed matches.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use redoop_core::time::TimeRange;
use redoop_dfs::Decimal;

/// Which of the two sensor streams to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Position readings.
    Position,
    /// Speed readings.
    Speed,
}

/// Deterministic sensor-stream generator.
#[derive(Debug)]
pub struct FfgGenerator {
    rng: StdRng,
    players: u32,
    /// Average records per event-time millisecond at multiplier 1.0.
    pub records_per_ms: f64,
}

impl FfgGenerator {
    /// Generator over `players` tracked entities.
    pub fn new(seed: u64, players: u32, records_per_ms: f64) -> Self {
        assert!(players >= 1);
        FfgGenerator { rng: StdRng::seed_from_u64(seed), players, records_per_ms }
    }

    /// Small default for tests and examples (22 players, ~2 rec/ms).
    pub fn small(seed: u64) -> Self {
        FfgGenerator::new(seed, 22, 2.0)
    }

    /// Number of tracked players.
    pub fn players(&self) -> u32 {
        self.players
    }

    /// Generates one batch of `stream` readings covering `range`, rate
    /// scaled by `multiplier`.
    pub fn batch(&mut self, stream: Stream, range: &TimeRange, multiplier: f64) -> Vec<String> {
        let span = range.len_millis();
        let count = (self.records_per_ms * multiplier * span as f64).round() as usize;
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let ts = range.start.0 + self.rng.random_range(0..span.max(1));
            let player = self.rng.random_range(0..self.players);
            let mut line = String::with_capacity(32);
            line.push_str(Decimal::new(ts).as_str());
            line.push_str(",p");
            line.push_str(Decimal::new(player as u64).as_str());
            match stream {
                Stream::Position => {
                    let x: u32 = self.rng.random_range(0..10_500); // cm
                    let y: u32 = self.rng.random_range(0..6_800);
                    line.push_str(",pos,");
                    line.push_str(Decimal::new(x as u64).as_str());
                    line.push(',');
                    line.push_str(Decimal::new(y as u64).as_str());
                }
                Stream::Speed => {
                    let v: u32 = self.rng.random_range(0..1_200); // cm/s
                    line.push_str(",spd,");
                    line.push_str(Decimal::new(v as u64).as_str());
                }
            }
            lines.push(line);
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redoop_core::time::EventTime;

    fn range(a: u64, b: u64) -> TimeRange {
        TimeRange::new(EventTime(a), EventTime(b))
    }

    #[test]
    fn streams_have_their_schemas() {
        let mut g = FfgGenerator::small(3);
        let pos = g.batch(Stream::Position, &range(0, 50), 1.0);
        assert_eq!(pos.len(), 100);
        for line in &pos {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 5);
            assert_eq!(fields[2], "pos");
            assert!(fields[1].starts_with('p'));
        }
        let spd = g.batch(Stream::Speed, &range(0, 50), 1.0);
        for line in &spd {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 4);
            assert_eq!(fields[2], "spd");
        }
    }

    #[test]
    fn keys_overlap_across_streams() {
        let mut g = FfgGenerator::new(5, 4, 5.0);
        let pos = g.batch(Stream::Position, &range(0, 100), 1.0);
        let spd = g.batch(Stream::Speed, &range(0, 100), 1.0);
        let pos_keys: std::collections::HashSet<&str> =
            pos.iter().map(|l| l.split(',').nth(1).unwrap()).collect();
        let spd_keys: std::collections::HashSet<&str> =
            spd.iter().map(|l| l.split(',').nth(1).unwrap()).collect();
        assert!(!pos_keys.is_disjoint(&spd_keys), "join keys must match");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = FfgGenerator::small(9).batch(Stream::Position, &range(0, 30), 1.0);
        let b = FfgGenerator::small(9).batch(Stream::Position, &range(0, 30), 1.0);
        assert_eq!(a, b);
    }
}
