//! Fixture: an allowlisted unsafe module whose block lost its SAFETY
//! justification, beside a registered C struct with its layout check.

#![allow(unsafe_code)]

pub fn peek(p: *const u8) -> u8 {
    unsafe { *p } // seeded: safety-comment (allowlisted, so no unsafe-module)
}

#[repr(C)]
pub struct PollFd {
    pub fd: i32,
    pub events: i16,
    pub revents: i16,
}

const _: () = assert!(std::mem::size_of::<PollFd>() == 8);
