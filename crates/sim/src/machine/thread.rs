//! Per-thread runtime state: frames, locals, blocking status.

use crate::addr::{stack_base, Addr, WORD_BYTES};
use crate::ids::{FuncId, LocalSlot, SyncId, ThreadId};

/// Words of simulated stack per frame (stack accesses wrap within this).
pub const FRAME_WORDS: u64 = 64;

/// Why a thread cannot currently run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting to acquire a mutex.
    Mutex(SyncId),
    /// Waiting for an event to be signaled.
    Event(SyncId),
    /// Waiting for a semaphore count.
    Semaphore(SyncId),
    /// Waiting at a barrier rendezvous.
    Barrier(SyncId),
    /// Waiting for a thread to exit.
    Join(ThreadId),
}

impl BlockReason {
    /// Human-readable description used in deadlock reports.
    pub fn describe(self) -> String {
        match self {
            BlockReason::Mutex(s) => format!("mutex {s}"),
            BlockReason::Event(s) => format!("event {s}"),
            BlockReason::Semaphore(s) => format!("semaphore {s}"),
            BlockReason::Barrier(s) => format!("barrier {s}"),
            BlockReason::Join(t) => format!("join of {t}"),
        }
    }
}

/// Scheduling status of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Can be scheduled.
    Runnable,
    /// Blocked; will be retried after being woken.
    Blocked(BlockReason),
    /// Finished.
    Exited,
}

/// One call frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The executing function.
    pub func: FuncId,
    /// Index of the next instruction to execute.
    pub pc: usize,
    /// Local slots (slot 0 holds the argument).
    pub locals: Vec<u64>,
    /// Live loop counters, innermost last.
    pub loop_stack: Vec<u32>,
}

impl Frame {
    /// Creates a frame for `func` with `locals` slots, the argument in slot 0.
    pub fn new(func: FuncId, locals: u16, arg: u64) -> Frame {
        let mut slots = vec![0u64; locals.max(1) as usize];
        slots[0] = arg;
        Frame {
            func,
            pc: 0,
            locals: slots,
            loop_stack: Vec::new(),
        }
    }

    /// Reads a local slot.
    pub fn local(&self, slot: LocalSlot) -> u64 {
        self.locals[slot.index()]
    }

    /// Writes a local slot.
    pub fn set_local(&mut self, slot: LocalSlot, value: u64) {
        self.locals[slot.index()] = value;
    }
}

/// Full state of one simulated thread.
#[derive(Debug, Clone)]
pub struct ThreadState {
    /// This thread's id.
    pub tid: ThreadId,
    /// The spawning thread (`None` for the main thread).
    pub parent: Option<ThreadId>,
    /// Whether the thread has taken its first step (and emitted its start
    /// events).
    pub started: bool,
    /// Scheduling status.
    pub status: ThreadStatus,
    /// Call stack, innermost frame last. Empty once exited.
    pub frames: Vec<Frame>,
}

impl ThreadState {
    /// Creates a thread, spawned by `parent`, about to run `func(arg)`.
    pub fn new(
        tid: ThreadId,
        parent: Option<ThreadId>,
        func: FuncId,
        locals: u16,
        arg: u64,
    ) -> ThreadState {
        ThreadState {
            tid,
            parent,
            started: false,
            status: ThreadStatus::Runnable,
            frames: vec![Frame::new(func, locals, arg)],
        }
    }

    /// The innermost frame.
    ///
    /// # Panics
    ///
    /// Panics if the thread has exited.
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("thread has no frames")
    }

    /// The innermost frame, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the thread has exited.
    pub fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("thread has no frames")
    }

    /// The stack address of word `offset` in the innermost frame.
    ///
    /// Offsets wrap within the frame's [`FRAME_WORDS`]-word window; frames
    /// occupy disjoint windows within the thread's stack region.
    pub fn stack_addr(&self, offset: u64) -> Addr {
        let depth = self.frames.len() as u64 - 1;
        let base = stack_base(self.tid.index());
        Addr(base.raw() + (depth * FRAME_WORDS + offset % FRAME_WORDS) * WORD_BYTES)
    }

    /// Whether the thread can be scheduled.
    pub fn is_runnable(&self) -> bool {
        self.status == ThreadStatus::Runnable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_slot_zero_holds_argument() {
        let f = Frame::new(FuncId::from_index(0), 4, 99);
        assert_eq!(f.local(LocalSlot(0)), 99);
        assert_eq!(f.local(LocalSlot(3)), 0);
    }

    #[test]
    fn zero_local_functions_still_get_an_arg_slot() {
        let f = Frame::new(FuncId::from_index(0), 0, 7);
        assert_eq!(f.local(LocalSlot(0)), 7);
    }

    #[test]
    fn stack_addresses_differ_by_frame_depth() {
        let mut t = ThreadState::new(ThreadId::MAIN, None, FuncId::from_index(0), 1, 0);
        let outer = t.stack_addr(0);
        t.frames.push(Frame::new(FuncId::from_index(1), 1, 0));
        let inner = t.stack_addr(0);
        assert_ne!(outer, inner);
        assert_eq!(inner.raw() - outer.raw(), FRAME_WORDS * WORD_BYTES);
    }

    #[test]
    fn stack_addresses_differ_by_thread() {
        let a = ThreadState::new(ThreadId::from_index(0), None, FuncId::from_index(0), 1, 0);
        let b = ThreadState::new(ThreadId::from_index(1), None, FuncId::from_index(0), 1, 0);
        assert_ne!(a.stack_addr(0), b.stack_addr(0));
    }

    #[test]
    fn stack_offsets_wrap_within_frame() {
        let t = ThreadState::new(ThreadId::MAIN, None, FuncId::from_index(0), 1, 0);
        assert_eq!(t.stack_addr(0), t.stack_addr(FRAME_WORDS));
    }
}
