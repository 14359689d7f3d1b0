//! Union-find (disjoint set union) with union by rank and path compression,
//! grown one element at a time, with a payload per set.
//!
//! Merge-tree construction performs `O(N)` union/find operations over the
//! sweep (paper Appendix B.2), giving the `N α(N)` term of its complexity.
//! The sweep asks three things of every neighbour — has it been swept, which
//! component is it in, what does the sweep know about that component — and
//! one word per element answers the first two and leads to the third: an
//! element's link says it is in no set yet, or names its parent, or, at a
//! representative, names the set's record.

/// Link tag of a representative; the low bits index `sets`.
const ROOT: u32 = 1 << 31;

/// Disjoint sets over the elements `0..n` that have been inserted so far,
/// each set carrying one `T`.
#[derive(Debug, Clone)]
pub struct UnionFind<T> {
    /// Per element: `0` while it is in no set, `ROOT | s` at the
    /// representative of `sets[s]`, otherwise `1 +` its parent element.
    link: Vec<u32>,
    sets: Vec<Set<T>>,
}

#[derive(Debug, Clone)]
struct Set<T> {
    rank: u8,
    payload: T,
}

impl<T> UnionFind<T> {
    /// `n` elements, none of them in a set yet.
    pub fn new(n: usize) -> Self {
        assert!(n < ROOT as usize, "element indices must leave the tag bit");
        Self {
            link: vec![0; n],
            sets: Vec::new(),
        }
    }

    /// True once `x` has been inserted or attached.
    #[inline]
    pub fn contains(&self, x: u32) -> bool {
        self.link[x as usize] != 0
    }

    /// Puts the new element `x` in a set of its own carrying `payload`.
    pub fn insert(&mut self, x: u32, payload: T) {
        debug_assert!(!self.contains(x));
        self.link[x as usize] = ROOT | self.sets.len() as u32;
        self.sets.push(Set { rank: 0, payload });
    }

    /// Adds the new element `x` to the set represented by `root`; returns
    /// that set's payload.
    #[inline]
    pub fn attach(&mut self, x: u32, root: u32) -> &mut T {
        debug_assert!(!self.contains(x));
        self.link[x as usize] = root + 1;
        let set = self.set_mut(root);
        set.rank = set.rank.max(1);
        &mut set.payload
    }

    /// Representative of the set the inserted element `x` is in, with path
    /// compression (iterative two-pass to avoid recursion on long chains).
    #[inline]
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.link[root as usize] & ROOT == 0 {
            root = self.link[root as usize] - 1;
        }
        let mut cur = x;
        while cur != root {
            let next = self.link[cur as usize] - 1;
            self.link[cur as usize] = root + 1;
            cur = next;
        }
        root
    }

    /// The payload of the set represented by `root`.
    #[inline]
    pub fn payload(&self, root: u32) -> &T {
        &self.set(root).payload
    }

    /// Merges the sets of `a` and `b`; returns the new representative, whose
    /// payload is the one its set had before the merge.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (rank_a, rank_b) = (self.set(ra).rank, self.set(rb).rank);
        let (hi, lo) = if rank_a >= rank_b { (ra, rb) } else { (rb, ra) };
        self.link[lo as usize] = hi + 1;
        if rank_a == rank_b {
            self.set_mut(hi).rank += 1;
        }
        hi
    }

    fn set_index(&self, root: u32) -> usize {
        let link = self.link[root as usize];
        debug_assert!(link & ROOT != 0, "{root} is not a representative");
        (link & !ROOT) as usize
    }

    fn set(&self, root: u32) -> &Set<T> {
        &self.sets[self.set_index(root)]
    }

    fn set_mut(&mut self, root: u32) -> &mut Set<T> {
        let index = self.set_index(root);
        &mut self.sets[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` singleton sets, each carrying its element.
    fn singletons_of(n: u32) -> UnionFind<u32> {
        let mut uf = UnionFind::new(n as usize);
        for i in 0..n {
            uf.insert(i, i);
        }
        uf
    }

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(6);
        assert!(!uf.contains(3));
        for i in 0..5 {
            uf.insert(i, i * 10);
        }
        for i in 0..5 {
            assert!(uf.contains(i));
            assert_eq!(uf.find(i), i);
            assert_eq!(*uf.payload(i), i * 10);
        }
        assert!(!uf.contains(5));
        assert_ne!(uf.find(0), uf.find(1));
    }

    #[test]
    fn union_chains() {
        let mut uf = singletons_of(10);
        for i in 0..9u32 {
            uf.union(i, i + 1);
        }
        let root = uf.find(0);
        for i in 0..10 {
            assert_eq!(uf.find(i), root);
        }
    }

    #[test]
    fn union_idempotent() {
        let mut uf = singletons_of(3);
        let r1 = uf.union(0, 1);
        let r2 = uf.union(0, 1);
        assert_eq!(r1, r2);
        assert_ne!(uf.find(0), uf.find(2));
    }

    #[test]
    fn union_keeps_the_representatives_payload() {
        let mut uf = UnionFind::new(5);
        for i in 0..4 {
            uf.insert(i, i);
        }
        let r = uf.union(2, 3);
        assert_eq!(*uf.payload(r), r);
        *uf.attach(4, r) = 77;
        // The deeper set's representative wins, whichever side it is on.
        assert_eq!(uf.union(0, r), r);
        let root = uf.find(0);
        assert_eq!(*uf.payload(root), 77);
    }

    #[test]
    fn attached_elements_join_the_set() {
        let mut uf = UnionFind::new(4);
        uf.insert(2, "a");
        uf.attach(0, 2);
        uf.attach(3, 2);
        assert!(uf.contains(0) && uf.contains(3) && !uf.contains(1));
        assert_eq!((uf.find(0), uf.find(3)), (2, 2));
        // An attached element counts as depth: a singleton merges under it.
        uf.insert(1, "b");
        assert_eq!(uf.union(1, 0), 2);
        assert_eq!(*uf.payload(2), "a");
    }

    #[test]
    fn long_path_compression() {
        // A pathological chain should still resolve quickly and correctly.
        let n = 100_000;
        let mut uf = singletons_of(n);
        for i in 0..(n - 1) {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.find(0), uf.find(n - 1));
    }
}
