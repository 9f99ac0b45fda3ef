//! The `parpat` command-line tool: analyze MiniLang programs for parallel
//! patterns, rank the findings, and suggest transformations.

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parpat::cli::run(&args) {
        Ok(out) => emit(&mut std::io::stdout().lock(), &mut std::io::stderr(), &out),
        Err(err) => {
            let _ = writeln!(std::io::stderr(), "{err}");
            1
        }
    };
    std::process::exit(code);
}

/// Write a verb's output `text` to `out` and return the exit status.
/// Renderers that own their layout already end with '\n'; emit exactly
/// one trailing newline either way (the lint golden file is diffed
/// byte-for-byte against stdout in ci.sh). A reader that closed the pipe
/// early, as `parpat ... | head` does, has taken all it wanted: that exits
/// 0 quietly. Any other write error is reported on one line of `err` and
/// exits 1.
fn emit(out: &mut impl Write, err: &mut impl Write, text: &str) -> i32 {
    let newline: &[u8] = if text.ends_with('\n') { b"" } else { b"\n" };
    let written = out
        .write_all(text.as_bytes())
        .and_then(|()| out.write_all(newline))
        .and_then(|()| out.flush());
    match written {
        Ok(()) => 0,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => 0,
        Err(e) => {
            let _ = writeln!(err, "parpat: cannot write the output: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose every write fails with `kind`.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn output_ends_in_exactly_one_newline() {
        for (text, written) in [("a\n", "a\n"), ("a", "a\n"), ("", "\n")] {
            let (mut out, mut err) = (Vec::new(), Vec::new());
            assert_eq!(emit(&mut out, &mut err, text), 0);
            assert_eq!(out, written.as_bytes());
            assert!(err.is_empty());
        }
    }

    #[test]
    fn a_closed_pipe_exits_zero_quietly_and_other_write_errors_exit_one() {
        let mut err = Vec::new();
        assert_eq!(emit(&mut Failing(ErrorKind::BrokenPipe), &mut err, "usage\n"), 0);
        assert!(err.is_empty(), "a closed pipe prints nothing");
        assert_eq!(emit(&mut Failing(ErrorKind::PermissionDenied), &mut err, "usage\n"), 1);
        let err = String::from_utf8(err).expect("utf-8");
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.contains("permission denied"), "{err}");
    }
}
