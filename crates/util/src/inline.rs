//! A vector whose first few items live inline.
//!
//! Hot paths that usually produce a handful of items — the rules one
//! command violates, the variables one command's postconditions write —
//! return an [`InlineVec`], so the common case performs no allocation.

use std::ops::Index;

/// A small vector: the first `N` items live inline, the rest spill to
/// the heap. A buffer that never holds more than `N` items never
/// allocates.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineVec<T, const N: usize> {
    inline: [Option<T>; N],
    spill: Vec<T>,
    len: usize,
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec {
            inline: std::array::from_fn(|_| None),
            spill: Vec::new(),
            len: 0,
        }
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty buffer. Performs no allocation.
    pub fn new() -> Self {
        InlineVec::default()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an item.
    pub fn push(&mut self, item: T) {
        if self.len < N {
            self.inline[self.len] = Some(item);
        } else {
            self.spill.push(item);
        }
        self.len += 1;
    }

    /// Clears the buffer, keeping any spilled heap capacity for reuse.
    pub fn clear(&mut self) {
        for slot in &mut self.inline {
            *slot = None;
        }
        self.spill.clear();
        self.len = 0;
    }

    /// The item at `index`, if any.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index < N {
            self.inline[index].as_ref()
        } else {
            self.spill.get(index - N)
        }
    }

    /// The first item, if any.
    pub fn first(&self) -> Option<&T> {
        self.get(0)
    }

    /// Iterates the items in insertion order.
    pub fn iter(&self) -> Iter<'_, T> {
        self.inline.iter().flatten().chain(&self.spill)
    }

    /// Moves the items into a plain `Vec` (allocates).
    pub fn into_vec(self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self);
        out
    }
}

/// Borrowing iterator of an [`InlineVec`].
pub type Iter<'a, T> =
    std::iter::Chain<std::iter::Flatten<std::slice::Iter<'a, Option<T>>>, std::slice::Iter<'a, T>>;

/// Owning iterator of an [`InlineVec`].
pub type IntoIter<T, const N: usize> =
    std::iter::Chain<std::iter::Flatten<std::array::IntoIter<Option<T>, N>>, std::vec::IntoIter<T>>;

impl<T, const N: usize> Index<usize> for InlineVec<T, N> {
    type Output = T;
    fn index(&self, index: usize) -> &T {
        self.get(index)
            .unwrap_or_else(|| panic!("index {index} out of bounds (len {})", self.len))
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> Self::IntoIter {
        self.inline.into_iter().flatten().chain(self.spill)
    }
}

impl<T, const N: usize> From<InlineVec<T, N>> for Vec<T> {
    fn from(v: InlineVec<T, N>) -> Vec<T> {
        v.into_vec()
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = InlineVec::new();
        for item in iter {
            out.push(item);
        }
        out
    }
}
