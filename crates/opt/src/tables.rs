//! Lookup tables the local passes allocate once per function and reuse
//! for every block.
//!
//! The local passes forget their facts at each block boundary. Rather
//! than building a fresh map per block, they keep one [`RegMap`] per
//! function and clear it in O(1) by bumping its epoch. Local CSE keys a
//! [`FxHashMap`]; no pass iterates that map, so its hasher never affects
//! the output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use impact_il::Reg;

/// A map from registers of one function to `T`, cleared in O(1): a slot
/// holds a value only while its stamp equals the current epoch.
pub(crate) struct RegMap<T> {
    slots: Vec<(u32, T)>,
    epoch: u32,
}

impl<T: Copy + Default> RegMap<T> {
    /// An empty map for registers `0..num_regs`.
    pub(crate) fn new(num_regs: u32) -> Self {
        RegMap {
            slots: vec![(0, T::default()); num_regs as usize],
            epoch: 1,
        }
    }

    /// Forgets every entry.
    pub(crate) fn clear(&mut self) {
        self.epoch += 1;
    }

    pub(crate) fn get(&self, r: Reg) -> Option<T> {
        let (stamp, value) = self.slots[r.index()];
        (stamp == self.epoch).then_some(value)
    }

    pub(crate) fn insert(&mut self, r: Reg, value: T) {
        self.slots[r.index()] = (self.epoch, value);
    }

    pub(crate) fn remove(&mut self, r: Reg) {
        self.slots[r.index()].0 = 0;
    }
}

/// A `HashMap` under [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The multiply-rotate hash of the Firefox and rustc hash tables: not
/// DoS-resistant, but several times cheaper than SipHash on small keys
/// the program builds itself.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_forgets_every_entry_and_remove_forgets_one() {
        let mut m: RegMap<i64> = RegMap::new(3);
        m.insert(Reg(0), 7);
        m.insert(Reg(2), -1);
        assert_eq!(m.get(Reg(0)), Some(7));
        assert_eq!(m.get(Reg(1)), None);
        m.remove(Reg(0));
        assert_eq!(m.get(Reg(0)), None);
        assert_eq!(m.get(Reg(2)), Some(-1));
        m.clear();
        assert_eq!(m.get(Reg(2)), None);
        m.insert(Reg(1), 4);
        assert_eq!(m.get(Reg(1)), Some(4));
    }
}
