//! Access detection: the software MMU.
//!
//! The original DSM-PM2 detects accesses to shared data with page faults
//! (SIGSEGV + mprotect). In this reproduction every DSM access goes through
//! the typed accessors below, which consult the calling thread's node page
//! table: if the local rights are insufficient the access *faults*, the
//! calibrated fault-detection cost (11 µs) is charged, the protocol's fault
//! handler runs, and the access is then repeated — exactly the structure of a
//! signal-based fault path, without the `unsafe` signal handling. The paper
//! itself supports bypassing page faults with explicit locality checks (the
//! `java_ic` protocol); [`DsmThreadCtx::inline_check`] models that path.

use crate::ctx::DsmThreadCtx;
use crate::page::{Access, DsmAddr, PAGE_SIZE};
use crate::protocol::{FaultInfo, ProtocolId};

/// Scalar types that can be stored in DSM memory.
pub trait DsmScalar: Copy + Sized + Send + 'static {
    /// Size of the value in bytes; at most 8.
    const SIZE: usize;
    /// Serialize into little-endian bytes.
    fn store_le(self, out: &mut [u8]);
    /// Deserialize from little-endian bytes.
    fn load_le(buf: &[u8]) -> Self;
}

/// Largest [`DsmScalar::SIZE`]: the scalar accessors stage values in a stack
/// buffer of this many bytes.
const MAX_SCALAR_SIZE: usize = 8;

macro_rules! impl_dsm_scalar {
    ($($t:ty),* $(,)?) => {
        $(
            impl DsmScalar for $t {
                const SIZE: usize = std::mem::size_of::<$t>();
                fn store_le(self, out: &mut [u8]) {
                    out.copy_from_slice(&self.to_le_bytes());
                }
                fn load_le(buf: &[u8]) -> Self {
                    <$t>::from_le_bytes(buf.try_into().expect("slice of exact size"))
                }
            }
        )*
    };
}

impl_dsm_scalar!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

fn check_within_page(addr: DsmAddr, size: usize) {
    assert!(
        addr.offset() + size <= PAGE_SIZE,
        "DSM access at {addr} of {size} bytes crosses a page boundary; \
         lay shared objects out so that scalars do not straddle pages"
    );
}

impl DsmThreadCtx<'_, '_> {
    /// Make sure the calling thread's node holds `needed` rights on the
    /// coherence line containing `addr`, taking page faults (and running the protocol's
    /// fault handlers) as long as it does not. This is the access-detection
    /// loop: "on exiting the fault handler the thread repeats the access".
    /// A granted write marks the line modified since the last release.
    pub fn ensure_access(&mut self, addr: DsmAddr, needed: Access) {
        self.ensure_access_sized(addr, 1, needed);
    }

    /// [`DsmThreadCtx::ensure_access`] for an access of `size` bytes: also
    /// checks that the access does not straddle a coherence-line boundary on
    /// sub-page-granularity regions (rights are per line, so a straddling
    /// access would only be covered on its first line). Returns the protocol
    /// managing the line.
    pub fn ensure_access_sized(
        &mut self,
        addr: DsmAddr,
        size: usize,
        needed: Access,
    ) -> ProtocolId {
        loop {
            let node = self.node();
            let check = self
                .runtime
                .page_table(node)
                .check_access(addr, size, needed)
                .unwrap_or_else(|| {
                    panic!("access at {addr} is outside every DSM allocation (node {node})")
                });
            if check.granted {
                return check.protocol;
            }
            // Page fault: charge the detection cost and run the handler.
            let rt = self.runtime.clone();
            rt.cluster()
                .monitor()
                .record("dsm_page_fault", rt.costs().page_fault());
            self.pm2.sim.charge(rt.costs().page_fault());
            match needed {
                Access::Write => rt.stats().incr_write_fault(),
                _ => rt.stats().incr_read_fault(),
            }
            let protocol = rt.protocol(check.protocol);
            let fault = FaultInfo {
                addr,
                page: addr.page(),
                line: check.line,
                access: needed,
            };
            if needed == Access::Write {
                protocol.write_fault_handler(self, fault);
            } else {
                protocol.read_fault_handler(self, fault);
            }
            // Loop: repeat the access (possibly from a different node if the
            // handler migrated the thread).
        }
    }

    /// Charge the cost of one explicit inline locality check and report
    /// whether the line containing `addr` is present locally with `needed`
    /// rights (the `java_ic` / compiler-target access path). A granted write
    /// marks the line modified since the last release.
    pub fn inline_check(&mut self, addr: DsmAddr, needed: Access) -> bool {
        self.runtime.stats().incr_inline_check();
        self.pm2.sim.charge(self.runtime.costs().inline_check());
        self.runtime
            .page_table(self.node())
            .check_access(addr, 1, needed)
            .is_some_and(|check| check.granted)
    }

    /// Read a scalar from shared memory (faulting as needed).
    pub fn read<T: DsmScalar>(&mut self, addr: DsmAddr) -> T {
        check_within_page(addr, T::SIZE);
        self.ensure_access_sized(addr, T::SIZE, Access::Read);
        self.read_local(addr)
    }

    /// Write a scalar to shared memory (faulting as needed). When the page's
    /// protocol records writes on the fly ([`crate::DsmProtocol::records_writes`],
    /// the Java protocols), the modified range is recorded exactly as
    /// [`DsmThreadCtx::write_recorded`] would — plain writes stay portable
    /// across every registered protocol.
    pub fn write<T: DsmScalar>(&mut self, addr: DsmAddr, value: T) {
        check_within_page(addr, T::SIZE);
        let protocol = self.ensure_access_sized(addr, T::SIZE, Access::Write);
        let record = self.runtime.records_writes(protocol);
        self.write_local(addr, value, record);
    }

    /// Write a scalar and record the modified range with field granularity
    /// (the on-the-fly diff recording used by the Java protocols' `put`).
    pub fn write_recorded<T: DsmScalar>(&mut self, addr: DsmAddr, value: T) {
        check_within_page(addr, T::SIZE);
        self.ensure_access_sized(addr, T::SIZE, Access::Write);
        self.write_local(addr, value, true);
    }

    /// Read `buf.len()` bytes from shared memory (must not cross a page).
    pub fn read_bytes(&mut self, addr: DsmAddr, buf: &mut [u8]) {
        check_within_page(addr, buf.len());
        self.ensure_access_sized(addr, buf.len(), Access::Read);
        self.read_local_bytes(addr, buf);
    }

    /// Write `bytes` to shared memory (must not cross a page). Recorded with
    /// field granularity when the page's protocol records writes on the fly
    /// (see [`DsmThreadCtx::write`]).
    pub fn write_bytes(&mut self, addr: DsmAddr, bytes: &[u8]) {
        check_within_page(addr, bytes.len());
        let protocol = self.ensure_access_sized(addr, bytes.len(), Access::Write);
        let record = self.runtime.records_writes(protocol);
        self.write_local_bytes(addr, bytes, record);
    }

    /// Read a scalar assuming rights are already held (no fault detection).
    /// Used by protocol code and by the inline-check access path after a
    /// successful check.
    pub fn read_local<T: DsmScalar>(&mut self, addr: DsmAddr) -> T {
        let mut buf = [0u8; MAX_SCALAR_SIZE];
        let buf = &mut buf[..T::SIZE];
        self.read_local_bytes(addr, buf);
        T::load_le(buf)
    }

    /// Write a scalar assuming write rights are already held. The check that
    /// granted them ([`DsmThreadCtx::ensure_access`] or
    /// [`DsmThreadCtx::inline_check`]) marked the line modified.
    pub fn write_local<T: DsmScalar>(&mut self, addr: DsmAddr, value: T, record: bool) {
        let mut buf = [0u8; MAX_SCALAR_SIZE];
        let buf = &mut buf[..T::SIZE];
        value.store_le(buf);
        self.write_local_bytes(addr, buf, record);
    }

    fn read_local_bytes(&mut self, addr: DsmAddr, buf: &mut [u8]) {
        let node = self.node();
        self.runtime.stats().incr_local_access();
        self.pm2.sim.charge(self.runtime.costs().local_access());
        self.runtime
            .frames(node)
            .read(addr.page(), addr.offset(), buf);
        self.report_access(addr, buf.len(), false);
    }

    fn write_local_bytes(&mut self, addr: DsmAddr, bytes: &[u8], record: bool) {
        let node = self.node();
        self.runtime.stats().incr_local_access();
        self.pm2.sim.charge(self.runtime.costs().local_access());
        let frames = self.runtime.frames(node);
        if record {
            frames.write_recorded(addr.page(), addr.offset(), bytes);
        } else {
            frames.write(addr.page(), addr.offset(), bytes);
        }
        self.report_access(addr, bytes.len(), true);
    }

    /// Report an application-level access to the verify observer, if one is
    /// installed. The observer must charge no virtual time (see
    /// [`crate::VerifyHooks`]), so instrumented runs stay bit-identical.
    fn report_access(&self, addr: DsmAddr, len: usize, is_write: bool) {
        if let Some(hooks) = self.runtime.hooks() {
            let access = crate::verify::MemAccess {
                time: self.pm2.sim.now(),
                node: self.node(),
                thread: self.pm2.sim.id(),
                page: addr.page(),
                addr,
                len,
                is_write,
            };
            hooks.mem_access(&self.runtime, access);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_through_le_bytes() {
        let mut buf = [0u8; 8];
        1234567890123u64.store_le(&mut buf);
        assert_eq!(u64::load_le(&buf), 1234567890123);
        let mut buf = [0u8; 4];
        (-7i32).store_le(&mut buf);
        assert_eq!(i32::load_le(&buf), -7);
        let mut buf = [0u8; 8];
        3.25f64.store_le(&mut buf);
        assert_eq!(f64::load_le(&buf), 3.25);
        assert_eq!(<u8 as DsmScalar>::SIZE, 1);
        assert_eq!(<f64 as DsmScalar>::SIZE, 8);
    }

    #[test]
    #[should_panic(expected = "crosses a page boundary")]
    fn cross_page_access_is_rejected() {
        check_within_page(DsmAddr(PAGE_SIZE as u64 - 2), 4);
    }

    #[test]
    fn within_page_access_is_accepted() {
        check_within_page(DsmAddr(PAGE_SIZE as u64 - 4), 4);
        check_within_page(DsmAddr(0), PAGE_SIZE);
    }
}
