//! `read_frame` must not trust a frame's length prefix with memory: a
//! peer that claims a 64 MiB payload and then sends 10 bytes and hangs up
//! gets `UnexpectedEof`, and the reader allocates only about what arrived.
//! A counting global allocator measures the bytes requested on the
//! reading thread.

use boomflow::protocol::MAX_FRAME;
use boomflow::{read_frame, ProtocolError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;

/// The system allocator plus a per-thread count of bytes requested, so
/// the test harness's own threads never leak into the measurement.
struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator can run while thread locals are torn down.
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn truncated_frame_allocates_only_what_arrived() {
    let mut wire = (MAX_FRAME as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(b"0123456789");
    let mut stream = wire.as_slice();

    let before = BYTES.with(Cell::get);
    let result = read_frame(&mut stream);
    let allocated = BYTES.with(Cell::get) - before;

    match result {
        Err(ProtocolError::Io(e)) => assert_eq!(e.kind(), ErrorKind::UnexpectedEof, "{e}"),
        other => panic!("expected UnexpectedEof, got {other:?}"),
    }
    assert!(allocated < 1 << 20, "read_frame allocated {allocated} bytes for a 10-byte payload");
}
