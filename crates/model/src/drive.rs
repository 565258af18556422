//! The tape drive model: the paper's per-request cost rules, written
//! once for every engine.
//!
//! * **Linear positioning** (Johnson & Miller VLDB'98): moving the head over
//!   `d` bytes of a `C`-byte tape takes `d / C × full_pass_time`. The same
//!   model gives rewind time (`position / C × full_pass_time`), which
//!   reproduces Table 1's 98 s maximum / 49 s average rewind.
//! * **Streaming transfer**: once positioned at an object's first byte the
//!   drive reads at its native rate.
//! * Constant **load/thread** and **unload** times.
//!
//! [`DriveSpec::switch_cost`] and [`DriveSpec::read_walk`] compose these
//! into the two charges every engine makes: bringing a new cartridge onto
//! a drive, and streaming a planned extent order.

use crate::robot::RobotSpec;
use crate::tape::Extent;
use crate::units::{Bytes, BytesPerSec};
use serde::{Deserialize, Serialize};

/// Static performance properties of a drive model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriveSpec {
    /// Native (uncompressed) streaming transfer rate.
    pub native_rate: BytesPerSec,
    /// "Load and thread to ready" time, seconds.
    pub load_time: f64,
    /// Unload time, seconds.
    pub unload_time: f64,
    /// Time for a full end-to-end tape pass (equals the maximum rewind
    /// time), seconds. Positioning any distance scales linearly from this.
    pub full_pass_time: f64,
}

impl DriveSpec {
    /// Transfer time for `size` at the native rate.
    #[inline]
    pub fn transfer_time(&self, size: Bytes) -> f64 {
        self.native_rate.time_for(size)
    }

    /// Head travel time between two byte positions on a tape of
    /// `capacity` bytes (linear positioning model).
    #[inline]
    pub fn position_time(&self, from: Bytes, to: Bytes, capacity: Bytes) -> f64 {
        debug_assert!(capacity > Bytes::ZERO);
        from.distance(to).get() as f64 / capacity.get() as f64 * self.full_pass_time
    }

    /// Rewind time from `position` back to the load point.
    #[inline]
    pub fn rewind_time(&self, position: Bytes, capacity: Bytes) -> f64 {
        self.position_time(position, Bytes::ZERO, capacity)
    }

    /// `(rewind, exchange)` seconds to bring a new cartridge onto a drive
    /// of a library with `robot`. `occupied` is the head position of the
    /// cartridge the drive holds, or `None` for an empty drive. An
    /// occupied drive rewinds alone, then unloads, has the robot swap the
    /// cartridges (eject + inject) and loads; an empty one only has the
    /// robot inject and loads. The exchange occupies robot and drive
    /// together (the paper's §6 switch timeline).
    #[inline]
    pub fn switch_cost(
        &self,
        robot: &RobotSpec,
        occupied: Option<Bytes>,
        capacity: Bytes,
    ) -> (f64, f64) {
        match occupied {
            Some(head) => (
                self.rewind_time(head, capacity),
                self.unload_time + robot.exchange_handling_time() + self.load_time,
            ),
            None => (0.0, robot.inject_handling_time() + self.load_time),
        }
    }

    /// Streams `plan` in order from `head`: the summed seek seconds, the
    /// summed transfer seconds and the head position after the last
    /// extent (`head` itself for an empty plan).
    #[inline]
    pub fn read_walk(&self, head: Bytes, plan: &[Extent], capacity: Bytes) -> (f64, f64, Bytes) {
        let mut pos = head;
        let mut seek_s = 0.0;
        let mut xfer_s = 0.0;
        for e in plan {
            seek_s += self.position_time(pos, e.offset, capacity);
            xfer_s += self.transfer_time(e.size);
            pos = e.end();
        }
        (seek_s, xfer_s, pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ObjectId;

    fn spec() -> DriveSpec {
        DriveSpec {
            native_rate: BytesPerSec::mb_per_sec(80.0),
            load_time: 19.0,
            unload_time: 19.0,
            full_pass_time: 98.0,
        }
    }

    const CAP: Bytes = Bytes::gb(400);

    #[test]
    fn linear_positioning_model() {
        let s = spec();
        // Full pass = 98 s.
        assert!((s.position_time(Bytes::ZERO, CAP, CAP) - 98.0).abs() < 1e-9);
        // Half pass = 49 s (Table 1's average rewind).
        assert!((s.rewind_time(Bytes::gb(200), CAP) - 49.0).abs() < 1e-9);
        // Symmetric.
        assert_eq!(
            s.position_time(Bytes::gb(10), Bytes::gb(60), CAP),
            s.position_time(Bytes::gb(60), Bytes::gb(10), CAP)
        );
    }

    /// One cartridge's cycle on Table 1's drive and robot: the switch onto
    /// an empty drive pays inject + load; the read walk charges each
    /// extent a seek from where the previous one ended plus its transfer,
    /// in plan order, and leaves the head at the last extent's end; the
    /// next switch rewinds from there (`h / C` of a 98 s pass), then pays
    /// unload + eject + inject + load.
    #[test]
    fn load_seek_read_cycle() {
        let cfg = crate::specs::paper_table1();
        let (s, robot) = (cfg.library.drive, cfg.library.robot);
        assert_eq!(cfg.library.tape.capacity, CAP);
        assert_eq!(s.switch_cost(&robot, None, CAP), (0.0, 7.6 + 19.0));

        let ext = |id: u32, offset: u64, size: u64| Extent {
            object: ObjectId(id),
            offset: Bytes::gb(offset),
            size: Bytes::gb(size),
        };
        // Served out of offset order: 100..108, 40..42, 300..310.
        let plan = [ext(0, 100, 8), ext(1, 40, 2), ext(2, 300, 10)];
        let pass = |from: u64, to: u64| from.abs_diff(to) as f64 * 1e9 / CAP.get() as f64 * 98.0;
        let rate = |gb: u64| gb as f64 * 1e9 / 80e6;
        let (seek, xfer, head) = s.read_walk(Bytes::gb(20), &plan, CAP);
        let want_seek = 0.0 + pass(20, 100) + pass(108, 40) + pass(42, 300);
        let want_xfer = 0.0 + rate(8) + rate(2) + rate(10);
        assert_eq!(seek.to_bits(), want_seek.to_bits());
        assert_eq!(xfer.to_bits(), want_xfer.to_bits());
        assert_eq!(head, Bytes::gb(310));
        let empty: &[Extent] = &[];
        assert_eq!(s.read_walk(head, empty, CAP), (0.0, 0.0, head));

        assert_eq!(
            s.switch_cost(&robot, Some(head), CAP),
            (pass(310, 0), 19.0 + 15.2 + 19.0)
        );
        assert_eq!(s.switch_cost(&robot, Some(Bytes::ZERO), CAP).0, 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> DriveSpec {
        DriveSpec {
            native_rate: BytesPerSec::mb_per_sec(80.0),
            load_time: 19.0,
            unload_time: 19.0,
            full_pass_time: 98.0,
        }
    }

    proptest! {
        /// The linear positioning model is symmetric, satisfies the
        /// triangle equality along a line, and never exceeds a full pass.
        #[test]
        fn positioning_is_linear(a in 0u64..400, b in 0u64..400, c in 0u64..400) {
            let s = spec();
            let cap = Bytes::gb(400);
            let (a, b, c) = (Bytes::gb(a), Bytes::gb(b), Bytes::gb(c));
            let t_ab = s.position_time(a, b, cap);
            prop_assert!((t_ab - s.position_time(b, a, cap)).abs() < 1e-12);
            prop_assert!(t_ab <= s.full_pass_time + 1e-12);
            // Monotone path: going a→b→c costs at least a→c.
            prop_assert!(
                s.position_time(a, b, cap) + s.position_time(b, c, cap)
                    >= s.position_time(a, c, cap) - 1e-9
            );
        }

        /// Reading any one extent from the load point and switching the
        /// cartridge out again costs a seek within one pass, the extent's
        /// transfer, and a rewind from the extent's end.
        #[test]
        fn drive_cycle_is_coherent(offset in 0u64..390, size in 1u64..10) {
            let s = spec();
            let robot = crate::robot::RobotSpec { cell_to_drive_time: 7.6, arms: 1 };
            let cap = Bytes::gb(400);
            let e = Extent {
                object: crate::ids::ObjectId(1),
                offset: Bytes::gb(offset),
                size: Bytes::gb(size),
            };
            let (seek, read, head) = s.read_walk(Bytes::ZERO, &[e], cap);
            prop_assert!(seek >= 0.0 && seek <= s.full_pass_time);
            prop_assert!((read - size as f64 * 12.5).abs() < 1e-6, "1 GB = 12.5 s at 80 MB/s");
            prop_assert_eq!(head, e.end());
            let (rewind, exchange) = s.switch_cost(&robot, Some(head), cap);
            prop_assert!((rewind - (offset + size) as f64 / 400.0 * 98.0).abs() < 1e-9);
            prop_assert_eq!(exchange, 19.0 + 15.2 + 19.0);
        }
    }
}
