//! Bay sets: the drive bays of one library that are in some state.
//!
//! Both engines keep a library's drives as bay sets (idle, switchable,
//! holding a tape with queued work), so dispatch reads a few words
//! instead of scanning every bay.

use std::ops::{BitAnd, Sub};

/// A set of drive bays of one library: one bit per bay, 256 bits in four
/// `u64` words. A bay number is a `u8` ([`tapesim_model::DriveId::bay`]),
/// so every library the model can describe fits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaySet([u64; 4]);

impl BaySet {
    /// No bays.
    pub const EMPTY: BaySet = BaySet([0; 4]);

    /// The bays `start..end`.
    pub fn range(start: u8, end: u8) -> BaySet {
        BaySet::below(end) - BaySet::below(start)
    }

    /// The bays `0..n`.
    fn below(n: u8) -> BaySet {
        // Word `w` holds bays `64w..64w + 64`: its low `n − 64w` bits.
        let word = |w: u32| {
            let bits = (n as u32).saturating_sub(64 * w).min(64);
            1u64.checked_shl(bits).map_or(u64::MAX, |bit| bit - 1)
        };
        BaySet([word(0), word(1), word(2), word(3)])
    }

    /// Adds `bay`.
    pub fn insert(&mut self, bay: u8) {
        if let Some(word) = self.0.get_mut(bay as usize / 64) {
            *word |= 1 << (bay % 64);
        }
    }

    /// Removes `bay`.
    pub fn remove(&mut self, bay: u8) {
        if let Some(word) = self.0.get_mut(bay as usize / 64) {
            *word &= !(1 << (bay % 64));
        }
    }

    /// Adds `bay` when `on`, removes it otherwise.
    pub fn set(&mut self, bay: u8, on: bool) {
        if on {
            self.insert(bay);
        } else {
            self.remove(bay);
        }
    }

    /// Whether `bay` is in the set.
    pub fn contains(self, bay: u8) -> bool {
        self.0
            .get(bay as usize / 64)
            .is_some_and(|word| word & (1 << (bay % 64)) != 0)
    }

    /// Whether the set holds no bay.
    pub fn is_empty(self) -> bool {
        self.0.iter().all(|&word| word == 0)
    }

    /// Number of bays in the set.
    pub fn len(self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// The bays in ascending order.
    pub fn iter(self) -> Bays {
        Bays {
            words: self.0,
            word: 0,
        }
    }
}

/// The bays of a [`BaySet`] in ascending order.
#[derive(Debug, Clone)]
pub struct Bays {
    words: [u64; 4],
    /// The word being drained; the ones before it are empty.
    word: usize,
}

impl Iterator for Bays {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        loop {
            let bits = self.words.get_mut(self.word)?;
            if *bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                // Word 3, bit 63 is bay 255: the sum fits a `u8`.
                return Some((self.word * 64 + bit) as u8);
            }
            self.word += 1;
        }
    }
}

impl BitAnd for BaySet {
    type Output = BaySet;
    fn bitand(self, other: BaySet) -> BaySet {
        let (BaySet([a0, a1, a2, a3]), BaySet([b0, b1, b2, b3])) = (self, other);
        BaySet([a0 & b0, a1 & b1, a2 & b2, a3 & b3])
    }
}

impl Sub for BaySet {
    type Output = BaySet;
    /// The bays of `self` that are not in `other`.
    fn sub(self, other: BaySet) -> BaySet {
        let (BaySet([a0, a1, a2, a3]), BaySet([b0, b1, b2, b3])) = (self, other);
        BaySet([a0 & !b0, a1 & !b1, a2 & !b2, a3 & !b3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn bays(set: BaySet) -> Vec<u8> {
        set.iter().collect()
    }

    #[test]
    fn ranges_cover_exactly_their_bays_across_word_edges() {
        for (start, end) in [
            (0, 0),
            (0, 8),
            (4, 8),
            (60, 70),
            (63, 64),
            (64, 128),
            (0, 255),
            (200, 255),
            (9, 3),
        ] {
            let want: Vec<u8> = (start..end).collect();
            assert_eq!(bays(BaySet::range(start, end)), want, "{start}..{end}");
            assert_eq!(BaySet::range(start, end).len(), want.len());
        }
    }

    #[test]
    fn set_algebra_matches_a_btree_set() {
        let a_bays = [0u8, 1, 63, 64, 65, 127, 128, 200, 254, 255];
        let b_bays = [1u8, 64, 100, 200, 255];
        let mut a = BaySet::EMPTY;
        let mut b = BaySet::EMPTY;
        a_bays.iter().for_each(|&x| a.insert(x));
        b_bays.iter().for_each(|&x| b.insert(x));
        let sa: BTreeSet<u8> = a_bays.into_iter().collect();
        let sb: BTreeSet<u8> = b_bays.into_iter().collect();
        assert_eq!(bays(a), sa.iter().copied().collect::<Vec<_>>());
        assert_eq!(
            bays(a & b),
            sa.intersection(&sb).copied().collect::<Vec<_>>()
        );
        assert_eq!(bays(a - b), sa.difference(&sb).copied().collect::<Vec<_>>());
        // `a` holds bay 255, which `0..255` leaves out.
        assert_eq!((BaySet::range(0, 255) - a).len(), 255 - (sa.len() - 1));
        for bay in 0..=255u8 {
            assert_eq!(a.contains(bay), sa.contains(&bay), "bay {bay}");
        }
        a.remove(64);
        a.set(3, true);
        a.set(255, false);
        assert!(!a.contains(64) && a.contains(3) && !a.contains(255));
        assert!(BaySet::EMPTY.is_empty() && !a.is_empty());
    }
}
