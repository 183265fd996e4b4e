//! CPU placement. Where the scheduler puts the client and the frontend
//! threads changes a round trip by up to 2x, and it chooses differently
//! from run to run. The benchmark therefore fixes the placement: the
//! frontend's threads share the first CPU the process may use, and the
//! busy-polling client runs alone on the second, as a client on another
//! machine would (on a single CPU both share it).

use std::io;
use std::sync::OnceLock;

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// `(server CPU, client CPU)`, chosen once at start-up.
static CPUS: OnceLock<(usize, usize)> = OnceLock::new();

/// Chooses the server's and the client's CPU from those the process may
/// use. Call once, before any thread is pinned.
pub fn init() -> io::Result<()> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let mut allowed = (0..1024).filter(|&cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0);
    let server = allowed
        .next()
        .ok_or_else(|| io::Error::other("no CPU allowed"))?;
    let client = allowed.next().unwrap_or(server);
    let _ = CPUS.set((server, client));
    Ok(())
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to `cpu`.
fn pin(cpu: usize) -> io::Result<()> {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

fn cpus() -> (usize, usize) {
    *CPUS.get().expect("affinity::init ran at start-up")
}

/// Call before starting the frontend: its threads inherit the server CPU.
pub fn enter_server() -> io::Result<()> {
    pin(cpus().0)
}

/// Call once the frontend runs: the calling thread becomes the client.
pub fn enter_client() -> io::Result<()> {
    pin(cpus().1)
}
