//! A bounded FIFO used for Inject/Eject Queues and bridge buffers.

use std::collections::VecDeque;

/// A bounded first-in-first-out queue.
///
/// # Example
///
/// ```
/// use noc_core::queue::Fifo;
/// let mut q: Fifo<u32> = Fifo::new(2);
/// assert!(q.push(1).is_ok());
/// assert!(q.push(2).is_ok());
/// assert_eq!(q.push(3), Err(3)); // full: value handed back
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    cap: usize,
}

impl<T> Fifo<T> {
    /// Create a FIFO holding at most `cap` items.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` — a zero-capacity queue can never make
    /// progress and always indicates a configuration bug.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "fifo capacity must be positive");
        Fifo {
            items: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Append an item; on overflow the item is returned as the error.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.cap {
            Err(item)
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Remove and return the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peek at the oldest item.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.cap
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.cap - self.items.len()
    }

    /// Iterate oldest-to-newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_order() {
        let mut q = Fifo::new(3);
        q.push('a').unwrap();
        q.push('b').unwrap();
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_returns_item() {
        let mut q = Fifo::new(1);
        q.push(10).unwrap();
        assert!(q.is_full());
        assert_eq!(q.push(11), Err(11));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn free_and_capacity() {
        let mut q = Fifo::new(4);
        q.push(0).unwrap();
        assert_eq!(q.capacity(), 4);
        assert_eq!(q.free(), 3);
        assert_eq!(q.peek(), Some(&0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: Fifo<u8> = Fifo::new(0);
    }
}
