//! Message cost accounting.
//!
//! In the CONGEST model a message crossing an edge in one round may carry
//! `O(log n)` bits. Every protocol message type implements [`Message`] and
//! reports its size honestly: a raw color costs the declared color-space
//! width, a hash-family index costs `⌈log₂ F⌉`, a window bitmap costs σ,
//! and so on. The engine sums these per directed edge per round.
//!
//! Bitmap payloads travel as [`Words`]: a read-only range of one buffer
//! that all of a sender's ranges share, so a copied message costs a
//! reference-count increment, not an allocation.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// A CONGEST message: cloneable payload with a declared bit size.
///
/// `Send + Sync` lets the engine share delivered inboxes across worker
/// threads; message types are plain data, so both come for free.
pub trait Message: Clone + Send + Sync + 'static {
    /// Number of bits this message occupies on the wire.
    fn bit_cost(&self) -> u64;
}

/// The empty message (pure synchronization pulses).
impl Message for () {
    fn bit_cost(&self) -> u64 {
        0
    }
}

/// Helper: cost in bits of an integer known to lie in `[0, bound)`.
///
/// # Example
///
/// ```
/// use congest::message::bits_for_range;
/// assert_eq!(bits_for_range(1), 0);
/// assert_eq!(bits_for_range(2), 1);
/// assert_eq!(bits_for_range(1000), 10);
/// ```
pub fn bits_for_range(bound: u64) -> u64 {
    u64::from(64 - bound.saturating_sub(1).leading_zeros())
}

/// A read-only range of 64-bit words inside a buffer that several
/// messages share: a sender fills one buffer with all of a round's
/// bitmaps and sends each receiver its range. Cloning a `Words` clones
/// the [`Arc`], never the words. It reads as the `[u64]` of its range.
///
/// # Example
///
/// ```
/// use congest::message::Words;
/// use std::sync::Arc;
///
/// let mut buf = Words::zeroed(4);
/// Arc::get_mut(&mut buf).expect("not shared yet").copy_from_slice(&[1, 2, 3, 4]);
/// let tail = Words::range(&buf, 1..4);
/// assert_eq!(*tail, [2, 3, 4]);
/// ```
#[derive(Clone)]
pub struct Words {
    buf: Arc<[u64]>,
    start: u32,
    len: u32,
}

/// Shows the range's words only, not the rest of the shared buffer.
impl std::fmt::Debug for Words {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Words {
    /// A buffer of `len` zero words, allocated once; fill it through
    /// [`Arc::get_mut`] before sharing it.
    pub fn zeroed(len: usize) -> Arc<[u64]> {
        std::iter::repeat_n(0, len).collect()
    }

    /// The words `range` of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not inside `buf`, or if `buf` is longer than
    /// `u32::MAX` words.
    pub fn range(buf: &Arc<[u64]>, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "range {range:?} outside a buffer of {} words",
            buf.len()
        );
        let end = u32::try_from(range.end).expect("buffer exceeds u32::MAX words");
        Words {
            buf: Arc::clone(buf),
            start: range.start as u32,
            len: end - range.start as u32,
        }
    }
}

impl Deref for Words {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        let start = self.start as usize;
        &self.buf[start..start + self.len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_message_is_free() {
        assert_eq!(().bit_cost(), 0);
    }

    /// Ranges of one buffer read their own words, and a copy shares the
    /// buffer instead of copying it.
    #[test]
    fn word_ranges_share_one_buffer() {
        let mut buf = Words::zeroed(5);
        assert_eq!(*buf, [0; 5]);
        Arc::get_mut(&mut buf)
            .expect("unshared")
            .copy_from_slice(&[10, 11, 12, 13, 14]);
        let (head, tail) = (Words::range(&buf, 0..2), Words::range(&buf, 2..5));
        assert_eq!((&*head, &*tail), (&[10, 11][..], &[12, 13, 14][..]));
        let copy = tail.clone();
        assert_eq!(Arc::strong_count(&buf), 4);
        assert!(std::ptr::eq(copy.as_ptr(), tail.as_ptr()));
        assert!(Words::range(&buf, 5..5).is_empty());
        assert_eq!(format!("{head:?}"), "[10, 11]");
    }

    #[test]
    #[should_panic(expected = "outside a buffer")]
    fn word_ranges_stay_inside_the_buffer() {
        let _ = Words::range(&Words::zeroed(2), 1..3);
    }

    #[test]
    fn range_bits() {
        assert_eq!(bits_for_range(0), 0);
        assert_eq!(bits_for_range(1), 0);
        assert_eq!(bits_for_range(3), 2);
        assert_eq!(bits_for_range(4), 2);
        assert_eq!(bits_for_range(5), 3);
        assert_eq!(bits_for_range(u64::MAX), 64);
    }
}
