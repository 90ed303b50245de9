//! Building blocks of the batched round path.
//!
//! A round of Algorithm 1 is one batch (Los–Sauerwald's view of
//! balanced allocation in batches): the whole pool draws, each bin
//! accepts, each bin serves. [`CappedService`](crate::CappedService)
//! handles a round's balls in bulk, and the two pieces here carry the
//! parts that are not plain vector passes:
//!
//! - [`merge_sorted_runs`] merges the shards' oldest-first reject lists
//!   back into one oldest-first pool, with no sort;
//! - [`PendingTickets`] keeps the admitted, not yet served tickets as a
//!   ring of per-round FIFO queues, so a completion finds its queue by
//!   subtraction and TTL reaping pops from the front.

use std::collections::VecDeque;

use iba_sim::codec::{Decoder, Encoder};

use crate::checkpoint::ResumeError;

/// Buffers holding at most this many elements are never shrunk.
pub(crate) const SCRATCH_FLOOR: usize = 1024;

/// Shrinks `buf` when its capacity exceeds twice its round's need (the
/// largest of `need`, its length and [`SCRATCH_FLOOR`]), down to one and
/// a half times the need. Called on recycled buffers once a round has
/// used them, so a burst's capacity is released once rounds are quiet
/// again, while the headroom keeps a round that needs slightly more from
/// regrowing the buffer.
pub(crate) fn shrink_excess<T>(buf: &mut Vec<T>, need: usize) {
    let need = need.max(buf.len()).max(SCRATCH_FLOOR);
    if buf.capacity() > 2 * need {
        buf.shrink_to(need + need / 2);
    }
}

/// Appends the k-way merge of `runs` to `out`.
///
/// Each run must be sorted by `key`. The result is exactly the
/// concatenation of the runs, in iteration order, stably sorted by `key`:
/// equal keys keep their run order, and within a run their own order.
/// The merge moves one block per (key, run) pair with `extend_from_slice`,
/// finding block ends by binary search, so it costs
/// O(distinct keys · runs · log run length) on top of the copy. Reject
/// lists carry few distinct labels (their balls' admission rounds), which
/// is the case this is built for. `runs` is iterated once per distinct
/// key, so it must be cheap to clone.
///
/// # Examples
///
/// ```
/// use iba_serve::batch::merge_sorted_runs;
///
/// let runs: [&[(u64, char)]; 2] = [&[(1, 'a'), (3, 'b')], &[(1, 'c'), (2, 'd')]];
/// let mut out = Vec::new();
/// merge_sorted_runs(runs.iter().copied(), |&(k, _)| k, &mut out);
/// assert_eq!(out, [(1, 'a'), (1, 'c'), (2, 'd'), (3, 'b')]);
/// ```
pub fn merge_sorted_runs<'a, T, K, I>(runs: I, key: impl Fn(&T) -> K, out: &mut Vec<T>)
where
    T: Copy + 'a,
    K: Ord,
    I: Iterator<Item = &'a [T]> + Clone,
{
    debug_assert!(
        runs.clone()
            .all(|run| run.windows(2).all(|w| key(&w[0]) <= key(&w[1]))),
        "every run must be sorted by key"
    );
    let mut next = runs.clone().filter_map(|run| run.first()).map(&key).min();
    while let Some(current) = next.take() {
        for run in runs.clone() {
            // Every element before `lo` has a smaller key and was copied
            // in an earlier pass; `lo..hi` holds exactly the `current`s.
            let lo = run.partition_point(|x| key(x) < current);
            let hi = lo + run[lo..].partition_point(|x| key(x) <= current);
            out.extend_from_slice(&run[lo..hi]);
            if let Some(after) = run.get(hi).map(&key) {
                if next.as_ref().is_none_or(|n| after < *n) {
                    next = Some(after);
                }
            }
        }
    }
}

/// The tickets admitted in one round, oldest first; `ids[head..]` are
/// still pending.
#[derive(Debug)]
struct Slot {
    label: u64,
    ids: Vec<u64>,
    head: usize,
}

impl Slot {
    fn pending(&self) -> &[u64] {
        &self.ids[self.head..]
    }

    fn is_exhausted(&self) -> bool {
        self.head == self.ids.len()
    }
}

/// Admitted tickets awaiting service: a ring of per-round FIFO queues in
/// ascending admission-round order.
///
/// Every round that admitted at least one ticket, from the oldest round
/// with a pending ticket on, owns one slot; rounds that admitted nothing
/// own none. While no round in the span was empty, the slot of label `l`
/// sits at index `l − base`, so [`complete`](Self::complete) finds it by
/// one subtraction; after a zero-admit round it falls back to a binary
/// search over the slots' labels. Exhausted slots leave from the front,
/// and their id buffers are kept for the next rounds' admissions.
///
/// The checkpoint section ([`encode_into`](Self::encode_into)) lists the
/// non-empty queues by ascending label — the layout of IBSV v1 and v2.
#[derive(Debug, Default)]
pub struct PendingTickets {
    slots: VecDeque<Slot>,
    /// Pending tickets over all slots.
    len: usize,
    /// Id buffers of retired slots, reused by [`admit`](Self::admit).
    spare: Vec<Vec<u64>>,
}

/// Retired id buffers kept for reuse. A steady round opens one slot
/// (admission comes first) and retires about one, which the next round's
/// admission then refills.
const SPARE_SLOTS: usize = 1;

impl PendingTickets {
    /// An empty ring.
    pub fn new() -> Self {
        PendingTickets::default()
    }

    /// Pending tickets over all rounds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no ticket is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Admits the tickets `ids` (in order) as one round labelled `label`,
    /// returning how many there were. A round that admits nothing leaves
    /// no slot.
    ///
    /// # Panics
    ///
    /// Panics if `label` is not newer than every round admitted before.
    pub fn admit(&mut self, label: u64, ids: impl IntoIterator<Item = u64>) -> u64 {
        if let Some(last) = self.slots.back() {
            assert!(
                last.label < label,
                "round {label} admitted after round {}",
                last.label
            );
        }
        let mut slot = Slot {
            label,
            ids: self.spare.pop().unwrap_or_default(),
            head: 0,
        };
        slot.ids.extend(ids);
        let admitted = slot.ids.len();
        self.len += admitted;
        if admitted == 0 {
            self.retire(slot);
        } else {
            shrink_excess(&mut slot.ids, 0);
            self.slots.push_back(slot);
        }
        admitted as u64
    }

    /// Pops the longest-waiting pending ticket admitted in round `label`
    /// (balls with equal labels are interchangeable), or `None` if that
    /// round has none left.
    pub fn complete(&mut self, label: u64) -> Option<u64> {
        let index = self.position(label)?;
        let slot = &mut self.slots[index];
        let id = *slot.pending().first()?;
        slot.head += 1;
        self.len -= 1;
        if index == 0 {
            while self.slots.front().is_some_and(Slot::is_exhausted) {
                let slot = self.slots.pop_front().expect("non-empty");
                self.retire(slot);
            }
        }
        Some(id)
    }

    /// Removes every pending ticket admitted in round `cutoff` or
    /// earlier, appending their ids to `expired` (oldest round first,
    /// FIFO within a round). Returns how many were removed.
    pub fn expire_through(&mut self, cutoff: u64, expired: &mut Vec<u64>) -> u64 {
        let mut reaped = 0;
        while self.slots.front().is_some_and(|s| s.label <= cutoff) {
            let slot = self.slots.pop_front().expect("non-empty");
            expired.extend_from_slice(slot.pending());
            reaped += slot.pending().len();
            self.retire(slot);
        }
        self.len -= reaped;
        reaped as u64
    }

    /// Bytes held by retired id buffers awaiting reuse.
    pub fn spare_bytes(&self) -> usize {
        self.spare
            .iter()
            .map(|ids| ids.capacity() * std::mem::size_of::<u64>())
            .sum()
    }

    /// Writes the checkpoint section: the number of non-empty rounds,
    /// then each one's label and pending ids, by ascending label.
    pub fn encode_into(&self, enc: &mut Encoder) {
        let live = || self.slots.iter().filter(|s| !s.is_exhausted());
        enc.usize(live().count());
        for slot in live() {
            enc.u64(slot.label);
            enc.u64_seq(slot.pending().iter().copied());
        }
    }

    /// Reads a section written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// [`ResumeError::Codec`] if the bytes run out, and
    /// [`ResumeError::Invalid`] if the labels are not strictly ascending
    /// or a round's queue is empty.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, ResumeError> {
        let rounds = dec.usize("pending ticket map")?;
        let mut pending = PendingTickets::new();
        for _ in 0..rounds {
            let label = dec.u64("pending label")?;
            if pending.slots.back().is_some_and(|s| s.label >= label) {
                return Err(ResumeError::Invalid {
                    what: "pending label order",
                });
            }
            let ids = dec.u64_seq("pending ticket ids")?;
            if ids.is_empty() {
                return Err(ResumeError::Invalid {
                    what: "empty pending queue",
                });
            }
            pending.len += ids.len();
            pending.slots.push_back(Slot {
                label,
                ids,
                head: 0,
            });
        }
        Ok(pending)
    }

    /// Index of the slot labelled `label`.
    fn position(&self, label: u64) -> Option<usize> {
        let base = self.slots.front()?.label;
        let guess = usize::try_from(label.checked_sub(base)?).ok()?;
        if self.slots.get(guess).is_some_and(|s| s.label == label) {
            return Some(guess);
        }
        // A zero-admit round in the span shifted the slots left of
        // `label − base`.
        let index = self.slots.partition_point(|s| s.label < label);
        (self.slots.get(index)?.label == label).then_some(index)
    }

    fn retire(&mut self, mut slot: Slot) {
        if self.spare.len() < SPARE_SLOTS {
            slot.ids.clear();
            self.spare.push(slot.ids);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_handles_empty_and_single_runs() {
        let mut out = Vec::new();
        merge_sorted_runs(std::iter::empty::<&[u64]>(), |&x| x, &mut out);
        assert!(out.is_empty());
        let runs: [&[u64]; 3] = [&[], &[2, 2, 5], &[]];
        merge_sorted_runs(runs.iter().copied(), |&x| x, &mut out);
        assert_eq!(out, [2, 2, 5]);
    }

    #[test]
    fn completions_find_their_round_across_gaps() {
        let mut pending = PendingTickets::new();
        assert_eq!(pending.admit(3, [30, 31]), 2);
        assert_eq!(pending.admit(4, []), 0);
        assert_eq!(pending.admit(5, [50]), 1);
        assert_eq!(pending.len(), 3);
        assert_eq!(pending.complete(5), Some(50));
        assert_eq!(pending.complete(5), None);
        assert_eq!(pending.complete(4), None);
        assert_eq!(pending.complete(2), None);
        assert_eq!(pending.complete(3), Some(30));
        assert_eq!(pending.complete(3), Some(31));
        assert!(pending.is_empty());
        assert!(pending.slots.is_empty(), "exhausted slots retire");
    }

    #[test]
    fn expiry_pops_whole_rounds_from_the_front() {
        let mut pending = PendingTickets::new();
        pending.admit(1, [10, 11]);
        pending.admit(2, [20]);
        pending.admit(4, [40]);
        assert_eq!(pending.complete(1), Some(10));
        let mut expired = Vec::new();
        assert_eq!(pending.expire_through(2, &mut expired), 2);
        assert_eq!(expired, [11, 20]);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending.complete(4), Some(40));
    }

    #[test]
    fn decode_rejects_unordered_labels_and_empty_queues() {
        for (labels, ids, what) in [
            ([2u64, 2], [1usize, 1], "pending label order"),
            ([3, 1], [1, 1], "pending label order"),
            ([1, 2], [1, 0], "empty pending queue"),
        ] {
            let mut enc = Encoder::new();
            enc.header("TEST", 1);
            enc.usize(2);
            for (label, count) in labels.into_iter().zip(ids) {
                enc.u64(label);
                enc.u64_seq((0..count).map(|i| i as u64));
            }
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes).unwrap();
            dec.header("TEST", 1).unwrap();
            assert!(
                matches!(PendingTickets::decode(&mut dec), Err(ResumeError::Invalid { what: w }) if w == what),
                "{labels:?} {ids:?}"
            );
        }
    }
}
