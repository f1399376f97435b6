//! One flat adjacency store for every diagram in the workspace.
//!
//! Both the Euclidean Voronoi diagram (`insq-voronoi`) and the network
//! Voronoi diagram (`insq-roadnet`) keep a sorted neighbor list per
//! site, patched locally under delta epochs and cloned whole at every
//! copy-on-write publish. [`FlatAdjacency`] holds all those lists in two
//! flat arrays — a `(start, len)` span per site over one shared target
//! array — so a clone is two `memcpy`s and a read is one slice, while an
//! edit touches only the edited list:
//!
//! * a list that still fits its span is rewritten in place;
//! * one that outgrows it moves to the end of the target array (the span
//!   at the very end simply grows);
//! * the slots a move or a shrink leaves behind are counted as dead, and
//!   once they exceed half the target array the store compacts, so each
//!   edit costs amortized O(degree) and the array stays within twice
//!   its live size;
//! * a clone reserves headroom ([`copy_with_headroom`]), so the edits
//!   that follow a copy-on-write clone append without first
//!   reallocating — and copying — the whole array.
//!
//! Lives here, next to [`crate::scratch`], because this crate is the
//! lowest common dependency of the two diagram crates.

/// Per-site neighbor lists in one flat target array (see the module
/// docs). Every list is kept sorted ascending by its callers' edits
/// ([`FlatAdjacency::from_undirected_edges`] sorts; [`FlatAdjacency::set`]
/// stores what it is given; the single-entry edits keep order).
#[derive(Debug)]
pub struct FlatAdjacency<T> {
    /// `(start, len)` of each list in `targets`; empty lists are `(0, 0)`.
    spans: Vec<(u32, u32)>,
    /// All lists, each contiguous, in no particular order, interleaved
    /// with dead slots.
    targets: Vec<T>,
    /// Slots of `targets` not covered by any span.
    dead: usize,
}

/// A copy of `items` with spare capacity for an eighth more (plus a
/// little), for snapshot clones about to be patched: appends stay O(1)
/// instead of the first one reallocating and copying the whole array.
/// The spare capacity is only allocated, never copied.
pub fn copy_with_headroom<T: Copy>(items: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(items.len() + items.len() / 8 + 64);
    out.extend_from_slice(items);
    out
}

impl<T: Copy> Clone for FlatAdjacency<T> {
    fn clone(&self) -> FlatAdjacency<T> {
        FlatAdjacency {
            spans: self.spans.clone(),
            targets: copy_with_headroom(&self.targets),
            dead: self.dead,
        }
    }
}

impl<T: Copy + Ord> FlatAdjacency<T> {
    /// Builds the lists of sites `0..n` from undirected edges `(a, b)`:
    /// each edge lands in both endpoint lists (as `id(b)` and `id(a)`),
    /// and every list is sorted ascending. Lists come out packed in site
    /// order with no dead slots.
    pub fn from_undirected_edges<I>(n: usize, edges: I, id: impl Fn(u32) -> T) -> FlatAdjacency<T>
    where
        I: IntoIterator<Item = (u32, u32)>,
        I::IntoIter: Clone,
    {
        let edges = edges.into_iter();
        let mut degree = vec![0u32; n];
        for (a, b) in edges.clone() {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut spans = Vec::with_capacity(n);
        let mut start = 0u32;
        for &d in &degree {
            spans.push(if d == 0 { (0, 0) } else { (start, 0) });
            start += d;
        }
        let mut targets = vec![id(0); start as usize];
        for (a, b) in edges {
            for (from, to) in [(a, b), (b, a)] {
                let span = &mut spans[from as usize];
                targets[(span.0 + span.1) as usize] = id(to);
                span.1 += 1;
            }
        }
        for &(s, l) in &spans {
            targets[s as usize..(s + l) as usize].sort_unstable();
        }
        FlatAdjacency {
            spans,
            targets,
            dead: 0,
        }
    }

    /// Number of lists (sites).
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the store holds no lists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The list of site `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[T] {
        let (s, l) = self.spans[i];
        &self.targets[s as usize..(s + l) as usize]
    }

    /// Target slots no list covers. Only a compaction ever lowers this
    /// count (to zero); every other edit keeps or raises it.
    #[inline]
    pub fn dead_slots(&self) -> usize {
        self.dead
    }

    /// Appends an empty list for a new site `len()`.
    pub fn push_empty(&mut self) {
        self.spans.push((0, 0));
    }

    /// Replaces the list of site `i` with `list` (which the caller keeps
    /// sorted ascending).
    pub fn set<I>(&mut self, i: usize, list: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let list = list.into_iter();
        let new_len = list.len();
        let (s, l) = self.spans[i];
        let (s, l) = (s as usize, l as usize);
        let start = if l > 0 && s + l == self.targets.len() {
            // The last span grows or shrinks where it stands.
            self.targets.truncate(s);
            self.targets.extend(list);
            s
        } else if new_len <= l {
            for (slot, t) in self.targets[s..s + new_len].iter_mut().zip(list) {
                *slot = t;
            }
            self.dead += l - new_len;
            s
        } else {
            self.dead += l;
            let end = self.targets.len();
            self.targets.extend(list);
            end
        };
        self.spans[i] = self.span_at(start, new_len);
        self.maybe_compact();
    }

    /// Inserts `x` into the sorted list of site `i`; returns `false` (and
    /// changes nothing) if it is already present.
    pub fn insert_sorted(&mut self, i: usize, x: T) -> bool {
        let Err(at) = self.get(i).binary_search(&x) else {
            return false;
        };
        let (s, l) = self.spans[i];
        let (mut s, l) = (s as usize, l as usize);
        if l == 0 || s + l != self.targets.len() {
            // Move the list to the end, where it can grow.
            self.dead += l;
            let end = self.targets.len();
            self.targets.extend_from_within(s..s + l);
            s = end;
        }
        self.targets.insert(s + at, x);
        self.spans[i] = self.span_at(s, l + 1);
        self.maybe_compact();
        true
    }

    /// Removes `x` from the sorted list of site `i`; returns `false` (and
    /// changes nothing) if it is absent.
    pub fn remove_sorted(&mut self, i: usize, x: T) -> bool {
        let Ok(at) = self.get(i).binary_search(&x) else {
            return false;
        };
        let (s, l) = self.spans[i];
        let (s, l) = (s as usize, l as usize);
        self.targets.copy_within(s + at + 1..s + l, s + at);
        self.dead += 1;
        self.spans[i] = self.span_at(s, l - 1);
        self.maybe_compact();
        true
    }

    /// Removes the list of site `i`; the last site's list takes its
    /// place (the same swap-remove renumbering as the site arrays).
    pub fn swap_remove(&mut self, i: usize) {
        self.dead += self.spans[i].1 as usize;
        self.spans.swap_remove(i);
        self.maybe_compact();
    }

    /// The span of a list of `len` entries at `start`.
    fn span_at(&self, start: usize, len: usize) -> (u32, u32) {
        debug_assert!(
            self.targets.len() <= u32::MAX as usize,
            "adjacency exceeds u32 range"
        );
        if len == 0 {
            (0, 0)
        } else {
            (start as u32, len as u32)
        }
    }

    /// Repacks the lists in site order once dead slots pass half the
    /// target array.
    fn maybe_compact(&mut self) {
        debug_assert_eq!(
            self.dead + self.spans.iter().map(|&(_, l)| l as usize).sum::<usize>(),
            self.targets.len(),
            "dead-slot bookkeeping"
        );
        if self.dead * 2 <= self.targets.len() {
            return;
        }
        let mut packed = Vec::with_capacity(self.targets.len() - self.dead);
        for span in &mut self.spans {
            let (s, l) = *span;
            if l > 0 {
                span.0 = packed.len() as u32;
                packed.extend_from_slice(&self.targets[s as usize..(s + l) as usize]);
            }
        }
        self.targets = packed;
        self.dead = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lists(a: &FlatAdjacency<u32>) -> Vec<Vec<u32>> {
        (0..a.len()).map(|i| a.get(i).to_vec()).collect()
    }

    #[test]
    fn builds_sorted_symmetric_lists() {
        let a = FlatAdjacency::from_undirected_edges(5, [(0, 3), (2, 0), (1, 0), (3, 2)], |v| v);
        assert_eq!(
            lists(&a),
            vec![vec![1, 2, 3], vec![0], vec![0, 3], vec![0, 2], vec![]]
        );
        assert_eq!(a.targets.len(), 8);
    }

    #[test]
    fn edits_move_only_what_outgrows_its_span() {
        let mut a = FlatAdjacency::from_undirected_edges(3, [(0, 1), (0, 2), (1, 2)], |v| v);
        // Shrink in place: one dead slot, nothing moves.
        a.set(0, [2]);
        assert_eq!((a.targets.len(), a.dead), (6, 1));
        // Grow a list that is not last: it moves to the end.
        a.set(1, [0, 2, 7]);
        assert_eq!((a.targets.len(), a.dead), (9, 3));
        // Grow the last list: it grows where it stands.
        a.set(1, [0, 2, 7, 9]);
        assert_eq!((a.targets.len(), a.dead), (10, 3));
        assert!(a.insert_sorted(1, 5));
        assert!(!a.insert_sorted(1, 5));
        assert!(a.remove_sorted(2, 0));
        assert!(!a.remove_sorted(2, 0));
        assert_eq!(lists(&a), vec![vec![2], vec![0, 2, 5, 7, 9], vec![1]]);
        a.push_empty();
        assert!(a.insert_sorted(3, 4));
        a.swap_remove(0);
        assert_eq!(lists(&a), vec![vec![4], vec![0, 2, 5, 7, 9], vec![1]]);
    }

    #[test]
    fn churn_matches_nested_lists_through_compactions() {
        let mut state = 0x5eed_u64;
        let mut next = move |m: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % m as u64) as u32
        };
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); 12];
        let mut flat = FlatAdjacency::from_undirected_edges(12, std::iter::empty(), |v| v);
        let mut compactions = 0;
        for _ in 0..4000 {
            let dead = flat.dead_slots();
            let i = next(model.len() as u32) as usize;
            match next(5) {
                0 | 1 => {
                    let x = next(40);
                    let fresh = model[i].binary_search(&x).is_err();
                    assert_eq!(flat.insert_sorted(i, x), fresh);
                    if fresh {
                        let at = model[i].binary_search(&x).unwrap_err();
                        model[i].insert(at, x);
                    }
                }
                2 => {
                    let x = next(40);
                    let present = model[i].binary_search(&x).is_ok();
                    assert_eq!(flat.remove_sorted(i, x), present);
                    model[i].retain(|&y| y != x);
                }
                3 => {
                    let mut list: Vec<u32> = (0..next(9)).map(|_| next(40)).collect();
                    list.sort_unstable();
                    list.dedup();
                    flat.set(i, list.iter().copied());
                    model[i] = list;
                }
                _ => {
                    if model.len() > 4 && next(2) == 0 {
                        flat.swap_remove(i);
                        model.swap_remove(i);
                    } else {
                        flat.push_empty();
                        model.push(Vec::new());
                    }
                }
            }
            if flat.dead_slots() < dead {
                compactions += 1;
            }
            assert_eq!(lists(&flat), model);
            assert!(flat.dead * 2 <= flat.targets.len());
        }
        assert!(compactions >= 3, "only {compactions} compactions");
    }
}
