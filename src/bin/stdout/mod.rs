//! Report output shared by the `netpart` and `tables` binaries. A reader
//! that closes the pipe early (`netpart kway c.blif | head -1`) has read
//! what it wanted; the run goes on and exits with its own code.

/// Writes report text to stdout. A reader that closed the pipe is not
/// an error; any other write error is.
pub fn write_stdout(args: std::fmt::Arguments<'_>) -> std::io::Result<()> {
    match std::io::Write::write_fmt(&mut std::io::stdout(), args) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        r => r,
    }
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        $crate::stdout::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::stdout::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

pub(crate) use outln;
