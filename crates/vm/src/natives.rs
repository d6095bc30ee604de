//! Native library routines.
//!
//! The bytecode inter-operates with "conventional code (a library
//! routine)" through the same indirect-call mechanism as trampolines
//! (§3): the global table maps a name to a synthetic native address, and
//! `CALL*` dispatches here. The set below is the small libc-ish surface
//! the mini-C corpus needs; every routine is deterministic so program
//! output can be compared across interpreters.

use crate::error::VmError;
use crate::machine::Vm;
use crate::value::Slot;

/// A native routine known to the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Native {
    /// `int putchar(int c)` — append a byte to the output.
    Putchar,
    /// `void putint(int v)` — append the decimal rendering of `v`.
    Putint,
    /// `void putuint(unsigned v)` — append the decimal rendering.
    Putuint,
    /// `void putstr(const char *s)` — append a NUL-terminated string.
    Putstr,
    /// `int getchar(void)` — next input byte or -1.
    Getchar,
    /// `void exit(int code)` — stop the program.
    Exit,
    /// `void abort(void)` — stop with code 134.
    Abort,
    /// `void *malloc(unsigned n)` — bump allocation, 8-byte aligned.
    Malloc,
    /// `void free(void *p)` — accepted and ignored (bump allocator).
    Free,
    /// `void *memcpy(void *d, const void *s, unsigned n)`.
    Memcpy,
    /// `void *memset(void *d, int c, unsigned n)`.
    Memset,
    /// `void srand(unsigned seed)` — seed the deterministic LCG.
    Srand,
    /// `int rand(void)` — next LCG value in `0..=32767`.
    Rand,
}

impl Native {
    /// Resolve a global-table name to a native routine.
    pub fn resolve(name: &str) -> Option<Native> {
        Some(match name {
            "putchar" => Native::Putchar,
            "putint" => Native::Putint,
            "putuint" => Native::Putuint,
            "putstr" => Native::Putstr,
            "getchar" => Native::Getchar,
            "exit" => Native::Exit,
            "abort" => Native::Abort,
            "malloc" => Native::Malloc,
            "free" => Native::Free,
            "memcpy" => Native::Memcpy,
            "memset" => Native::Memset,
            "srand" => Native::Srand,
            "rand" => Native::Rand,
            _ => return None,
        })
    }

    /// Incoming-argument bytes the routine consumes (the x86-style
    /// contiguous block of §3/Appendix 3).
    pub fn arg_bytes(self) -> usize {
        match self {
            Native::Getchar | Native::Rand | Native::Abort => 0,
            Native::Putchar
            | Native::Putint
            | Native::Putuint
            | Native::Putstr
            | Native::Exit
            | Native::Malloc
            | Native::Free
            | Native::Srand => 4,
            Native::Memset | Native::Memcpy => 12,
        }
    }

    /// All natives (for the C generator and docs).
    pub const ALL: &'static [Native] = &[
        Native::Putchar,
        Native::Putint,
        Native::Putuint,
        Native::Putstr,
        Native::Getchar,
        Native::Exit,
        Native::Abort,
        Native::Malloc,
        Native::Free,
        Native::Memcpy,
        Native::Memset,
        Native::Srand,
        Native::Rand,
    ];
}

fn arg_u32(args: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(args[4 * i..4 * i + 4].try_into().expect("4 bytes"))
}

/// Outcome of a native call.
pub enum NativeOutcome {
    /// Normal return with a value (void routines return `Slot::ZERO`).
    Return(Slot),
    /// The program requested termination with this exit code.
    Exit(i32),
}

/// Execute a native routine against the VM state.
///
/// # Errors
///
/// Propagates memory faults and heap exhaustion.
pub fn call(vm: &mut Vm<'_>, native: Native, args: &[u8]) -> Result<NativeOutcome, VmError> {
    let ret = match native {
        Native::Putchar => {
            let c = arg_u32(args, 0);
            vm.output.push(c as u8);
            Slot::from_u(c)
        }
        Native::Putint => {
            let v = arg_u32(args, 0) as i32;
            vm.output.extend_from_slice(v.to_string().as_bytes());
            Slot::ZERO
        }
        Native::Putuint => {
            let v = arg_u32(args, 0);
            vm.output.extend_from_slice(v.to_string().as_bytes());
            Slot::ZERO
        }
        Native::Putstr => {
            let addr = arg_u32(args, 0);
            let s = vm.mem.load_cstr(addr, 1 << 16)?;
            vm.output.extend_from_slice(&s);
            Slot::ZERO
        }
        Native::Getchar => {
            let v = vm.input.pop_front().map(i32::from).unwrap_or(-1);
            Slot::from_i(v)
        }
        Native::Exit => return Ok(NativeOutcome::Exit(arg_u32(args, 0) as i32)),
        Native::Abort => return Ok(NativeOutcome::Exit(134)),
        Native::Malloc => {
            let n = arg_u32(args, 0);
            Slot::from_u(vm.heap_alloc(n)?)
        }
        Native::Free => Slot::ZERO,
        Native::Memcpy => {
            let d = arg_u32(args, 0);
            let s = arg_u32(args, 1);
            let n = arg_u32(args, 2);
            if n > 0 {
                vm.mem.copy(d, s, n)?;
            }
            Slot::from_u(d)
        }
        Native::Memset => {
            let d = arg_u32(args, 0);
            let c = arg_u32(args, 1) as u8;
            let n = arg_u32(args, 2);
            if n > 0 {
                vm.mem.fill(d, n, c)?;
            }
            Slot::from_u(d)
        }
        Native::Srand => {
            vm.rng_state = u64::from(arg_u32(args, 0));
            Slot::ZERO
        }
        Native::Rand => {
            // The classic C LCG, returning 0..=32767.
            vm.rng_state = vm
                .rng_state
                .wrapping_mul(1_103_515_245)
                .wrapping_add(12_345)
                & 0x7FFF_FFFF;
            Slot::from_u(((vm.rng_state >> 16) & 0x7FFF) as u32)
        }
    };
    Ok(NativeOutcome::Return(ret))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_covers_the_registry() {
        for &n in Native::ALL {
            // Every native resolves from some name and declares a sane
            // argument size.
            assert!(n.arg_bytes() % 4 == 0);
        }
        assert_eq!(Native::resolve("putchar"), Some(Native::Putchar));
        assert_eq!(Native::resolve("memcpy"), Some(Native::Memcpy));
        assert_eq!(Native::resolve("printf"), None);
    }
}
