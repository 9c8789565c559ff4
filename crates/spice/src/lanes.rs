//! Compact simulation worklists: the request form of
//! [`CharacterizationEngine::solve`](crate::engine::CharacterizationEngine::solve).
//!
//! A [`LaneSet`] keeps one table each of the arcs, input points and process seeds it has
//! seen, and stores every lane as three `u32` indices into those tables, so a worklist of
//! tens of thousands of Monte Carlo lanes costs 12 bytes a lane rather than a full
//! `(cell, arc, point, seed)` tuple.  Points and seeds are interned by bit pattern (with
//! `-0.0` folded onto `+0.0`, as [`SimKey`](crate::cache::SimKey) does), so two lanes
//! have equal indices exactly when they have equal cache keys under one engine.
//!
//! A lane can carry several **requests**: a caller that knows two consumers want the
//! same transient (the delay and slew units of one arc, say) declares the second with
//! [`LaneSet::request`] instead of pushing a copy.  Each request is one cache lookup's
//! worth of accounting; a lane is one transient.

use crate::cache::fold_zero_bits;
use crate::input::InputPoint;
use slic_cells::{Cell, TimingArc};
use slic_device::ProcessSample;
use std::collections::BTreeMap;

/// The coordinates of one lane, as indices into its [`LaneSet`]'s tables.  Ordered arc
/// first, so sorting lanes groups them by arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct LaneRef {
    arc: u32,
    point: u32,
    seed: u32,
}

/// A compact simulation worklist: interned arc, point and seed tables, one index triple
/// per lane, and a request count per lane.
#[derive(Debug, Clone, Default)]
pub struct LaneSet {
    arcs: Vec<(Cell, TimingArc)>,
    points: Vec<InputPoint>,
    seeds: Vec<ProcessSample>,
    arc_index: BTreeMap<(Cell, TimingArc), u32>,
    point_index: BTreeMap<[u64; 3], u32>,
    seed_index: BTreeMap<[u64; 7], u32>,
    lanes: Vec<LaneRef>,
    requests: Vec<u32>,
}

/// The `u32` index of the last entry of a table with `len` entries.
fn last_index(len: usize) -> u32 {
    // slic-lint: allow(P1) -- a lane set past u32::MAX entries would hold 64 GB of results; no run gets near it, so overflowing is a bug, not an input to recover from.
    u32::try_from(len - 1).expect("lane-set tables index with u32")
}

/// Returns the index of `key` in `index`, appending `value` to `table` on first sight.
fn intern<K: Ord, V>(index: &mut BTreeMap<K, u32>, table: &mut Vec<V>, key: K, value: V) -> u32 {
    *index.entry(key).or_insert_with(|| {
        table.push(value);
        last_index(table.len())
    })
}

impl LaneSet {
    /// An empty worklist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a new lane with one request and returns its index.  A lane is never
    /// merged with an earlier one of equal coordinates: [`solve`] pays such copies once
    /// and resolves the rest through single flight (see there).
    ///
    /// [`solve`]: crate::engine::CharacterizationEngine::solve
    pub fn push(
        &mut self,
        cell: Cell,
        arc: TimingArc,
        point: InputPoint,
        seed: ProcessSample,
    ) -> u32 {
        let lane = LaneRef {
            arc: intern(
                &mut self.arc_index,
                &mut self.arcs,
                (cell, arc),
                (cell, arc),
            ),
            point: intern(
                &mut self.point_index,
                &mut self.points,
                [point.sin.value(), point.cload.value(), point.vdd.value()].map(fold_zero_bits),
                point,
            ),
            seed: intern(
                &mut self.seed_index,
                &mut self.seeds,
                [
                    seed.delta_vth_n,
                    seed.delta_vth_p,
                    seed.vx0_scale_n,
                    seed.vx0_scale_p,
                    seed.cinv_scale,
                    seed.dibl_scale_n,
                    seed.dibl_scale_p,
                ]
                .map(fold_zero_bits),
                seed,
            ),
        };
        self.lanes.push(lane);
        self.requests.push(1);
        last_index(self.lanes.len())
    }

    /// Declares one more request for the existing lane `lane`: it is simulated once and
    /// the request is answered from the cache after the store.
    ///
    /// # Panics
    ///
    /// Panics if `lane` was not returned by [`push`](Self::push) on this set.
    pub fn request(&mut self, lane: u32) {
        self.requests[lane as usize] += 1;
    }

    /// Number of lanes (distinct transients requested, before cache deduplication).
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the worklist has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Total requests over every lane.
    pub(crate) fn request_count(&self) -> u64 {
        self.requests.iter().map(|&r| u64::from(r)).sum()
    }

    /// Requests carried by lane `lane`.
    pub(crate) fn requests_of(&self, lane: u32) -> u32 {
        self.requests[lane as usize]
    }

    /// The full coordinates of lane `lane`.
    pub fn lane(&self, lane: u32) -> (Cell, TimingArc, InputPoint, ProcessSample) {
        let r = self.lanes[lane as usize];
        let (cell, arc) = self.arcs[r.arc as usize];
        (
            cell,
            arc,
            self.points[r.point as usize],
            self.seeds[r.seed as usize],
        )
    }

    /// Lane indices sorted by coordinates (ties by index), and the start of every run of
    /// equal coordinates in that order.  The first lane of a run is its primary.
    pub(crate) fn key_groups(&self) -> (Vec<u32>, Vec<u32>) {
        let mut order: Vec<u32> = (0..self.lanes.len() as u32).collect();
        // Stable, so equal lanes keep ascending index order.
        order.sort_by_key(|&l| self.lanes[l as usize]);
        let starts = (0..order.len())
            .filter(|&i| {
                i == 0 || self.lanes[order[i - 1] as usize] != self.lanes[order[i] as usize]
            })
            .map(|i| i as u32)
            .collect();
        (order, starts)
    }
}

/// Collects `(cell, arc, point, seed)` lanes in order, one request each, as repeated
/// [`push`](LaneSet::push) calls would: lane `i` of the set is item `i`.
impl FromIterator<(Cell, TimingArc, InputPoint, ProcessSample)> for LaneSet {
    fn from_iter<I: IntoIterator<Item = (Cell, TimingArc, InputPoint, ProcessSample)>>(
        iter: I,
    ) -> Self {
        let mut lanes = Self::new();
        for (cell, arc, point, seed) in iter {
            lanes.push(cell, arc, point, seed);
        }
        lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slic_cells::{CellKind, DriveStrength, Transition};
    use slic_units::{Farads, Seconds, Volts};

    fn point(sin_ps: f64) -> InputPoint {
        InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(2.0),
            Volts(0.8),
        )
    }

    #[test]
    fn tables_intern_and_groups_follow_coordinates() {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let fall = TimingArc::new(cell, 0, Transition::Fall);
        let rise = TimingArc::new(cell, 0, Transition::Rise);
        let nominal = ProcessSample::nominal();
        let mut lanes = LaneSet::new();
        let a = lanes.push(cell, rise, point(5.0), nominal);
        let b = lanes.push(cell, fall, point(5.0), nominal);
        let c = lanes.push(cell, rise, point(5.0), nominal);
        lanes.request(b);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes.request_count(), 4);
        assert_eq!(
            (lanes.arcs.len(), lanes.points.len(), lanes.seeds.len()),
            (2, 1, 1)
        );
        assert_eq!(lanes.lane(c), (cell, rise, point(5.0), nominal));
        // Lanes 0 and 2 share coordinates: one group, primary 0.
        let (order, starts) = lanes.key_groups();
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(starts, vec![0, 2]);
    }

    #[test]
    fn negative_zero_shares_a_point_with_positive_zero() {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let mut lanes = LaneSet::new();
        let mut seed = ProcessSample::nominal();
        seed.delta_vth_n = 0.0;
        lanes.push(cell, arc, point(5.0), seed);
        seed.delta_vth_n = -0.0;
        lanes.push(cell, arc, point(5.0), seed);
        assert_eq!(lanes.key_groups().1, vec![0]);
    }
}
