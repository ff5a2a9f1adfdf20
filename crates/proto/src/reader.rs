//! The one patient buffered reader both planes read sockets through.
//!
//! Every long-lived connection in Swala — an HTTP keep-alive session, a
//! peer's notice link, a pooled fetch connection — is read by a thread
//! that must also notice a shutdown flag, so its socket carries a short
//! read timeout set **once**, at connection set-up. What a timeout means
//! is then decided here, in user space, by one rule:
//!
//! * **nothing buffered** — the peer is between messages. The timeout is
//!   idleness ([`Fill::Idle`] / [`FrameRead::Idle`]): nothing was
//!   consumed, the caller re-checks its flags and calls again.
//! * **a message has begun** — returning would lose the position in the
//!   stream (or restart a parse that already consumed bytes), so the
//!   reader keeps reading until the peer has made no progress for the
//!   caller's *stall limit* or `abandon()` says to stop. Either is an
//!   error (`TimedOut`) and the connection must be closed.
//!
//! Because the reader owns a buffer, a message that arrives in one
//! segment costs one `read`, a pipelined burst costs one `read` for all
//! of it, and a frame too large for the buffer has its remainder read
//! straight into the payload it is returned in.

use crate::wire::{ProtoError, MAX_FRAME};
use std::borrow::Cow;
use std::io::{self, Read};
use std::time::{Duration, Instant};

/// Initial buffer size: a request head or a notice batch with room to
/// spare, and a fetch reply carrying a typical (4 KiB) body.
const DEFAULT_CAPACITY: usize = 8 * 1024;

/// What one [`PatientReader::fill`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Fill {
    /// At least one more byte is buffered.
    Data,
    /// The read timed out with nothing buffered: the peer is idle.
    Idle,
    /// EOF. Clean when [`PatientReader::buffer`] is empty, otherwise the
    /// peer hung up mid-message.
    Closed,
}

/// What [`PatientReader::read_frame`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// One whole frame's payload — borrowed from the buffer when the
    /// frame fit it, owned when it had to be assembled.
    Frame(Cow<'a, [u8]>),
    /// The read timed out before a frame's first byte: nothing was
    /// consumed, so the caller may simply call again.
    Idle,
    /// Clean EOF at a frame boundary.
    Closed,
}

/// A buffered reader over a stream whose reads time out.
#[derive(Debug)]
pub struct PatientReader<R> {
    inner: R,
    /// Fully initialised storage; `start..end` is the unconsumed part.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One read into `dst` under the idle-vs-stall rule (module doc): the
/// byte count (0 = EOF), or `None` for an idle timeout, which only a
/// read that is not `mid_message` can report.
fn read_step<R: Read>(
    inner: &mut R,
    dst: &mut [u8],
    mid_message: bool,
    stall_limit: Duration,
    abandon: &mut impl FnMut() -> bool,
) -> io::Result<Option<usize>> {
    let mut stalled_since = None;
    loop {
        match inner.read(dst) {
            Ok(n) => return Ok(Some(n)),
            Err(e) if is_timeout(&e) => {
                if !mid_message {
                    return Ok(None);
                }
                let since = *stalled_since.get_or_insert_with(Instant::now);
                if abandon() || since.elapsed() >= stall_limit {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled mid-message",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn eof_mid_frame() -> ProtoError {
    ProtoError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "eof mid-frame",
    ))
}

impl<R: Read> PatientReader<R> {
    pub fn new(inner: R) -> Self {
        Self::with_capacity(DEFAULT_CAPACITY, inner)
    }

    /// A reader whose buffer starts at `capacity` bytes (at least a frame
    /// header). [`fill`](Self::fill) grows it when a message outgrows it;
    /// [`read_frame`](Self::read_frame) never does.
    pub fn with_capacity(capacity: usize, inner: R) -> Self {
        PatientReader {
            inner,
            buf: vec![0; capacity.max(4)],
            start: 0,
            end: 0,
        }
    }

    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// The stream, for writing replies. Reading from it directly would
    /// bypass the buffer.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// The bytes read but not yet consumed.
    pub fn buffer(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Mark the first `n` buffered bytes as used.
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.end - self.start, "consume past the buffer");
        self.start += n;
    }

    /// Read more bytes behind the buffered ones, growing the buffer when
    /// it is full: one `read` unless the stream times out mid-message.
    pub fn fill(
        &mut self,
        stall_limit: Duration,
        mut abandon: impl FnMut() -> bool,
    ) -> io::Result<Fill> {
        if self.start > 0 {
            // Only a partial message is ever moved: a fully consumed
            // buffer rewinds for free.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let mid_message = self.end > 0;
        let step = read_step(
            &mut self.inner,
            &mut self.buf[self.end..],
            mid_message,
            stall_limit,
            &mut abandon,
        )?;
        Ok(match step {
            Some(0) => Fill::Closed,
            Some(n) => {
                self.end += n;
                Fill::Data
            }
            None => Fill::Idle,
        })
    }

    /// Read one length-prefixed frame (the format of
    /// [`read_frame`](crate::wire::read_frame)). A frame that fits the
    /// buffer is returned in place; a larger one is assembled in a
    /// payload of its own, the bytes behind the buffered head read
    /// directly into it.
    pub fn read_frame(
        &mut self,
        stall_limit: Duration,
        mut abandon: impl FnMut() -> bool,
    ) -> Result<FrameRead<'_>, ProtoError> {
        while self.end - self.start < 4 {
            match self.fill(stall_limit, &mut abandon)? {
                Fill::Data => {}
                Fill::Idle => return Ok(FrameRead::Idle),
                Fill::Closed if self.start == self.end => return Ok(FrameRead::Closed),
                Fill::Closed => return Err(eof_mid_frame()),
            }
        }
        let head = &self.buf[self.start..self.start + 4];
        let len = u32::from_be_bytes(head.try_into().expect("four bytes")) as usize;
        if len > MAX_FRAME {
            return Err(ProtoError::FrameTooLarge(len));
        }
        if 4 + len <= self.buf.len() {
            while self.end - self.start < 4 + len {
                // The header is buffered, so a timeout here is a stall.
                if self.fill(stall_limit, &mut abandon)? != Fill::Data {
                    return Err(eof_mid_frame());
                }
            }
            let at = self.start + 4;
            self.start = at + len;
            return Ok(FrameRead::Frame(Cow::Borrowed(&self.buf[at..at + len])));
        }
        let mut payload = Vec::with_capacity(len);
        payload.extend_from_slice(&self.buf[self.start + 4..self.end]);
        self.start = self.end;
        let mut filled = payload.len();
        payload.resize(len, 0);
        while filled < len {
            let dst = &mut payload[filled..];
            match read_step(&mut self.inner, dst, true, stall_limit, &mut abandon)? {
                Some(0) => return Err(eof_mid_frame()),
                Some(n) => filled += n,
                None => unreachable!("mid-message reads never report idle"),
            }
        }
        Ok(FrameRead::Frame(Cow::Owned(payload)))
    }
}

/// A stream that plays back a script — chunks to deliver (the split
/// points of whatever is being read) and read timeouts — then reports
/// EOF, counting the `read` calls made on it. Tests use it to prove read
/// counts and every idle/stall decision without a socket or a clock.
#[derive(Debug, Default)]
pub struct Script {
    steps: std::collections::VecDeque<Option<Vec<u8>>>,
    reads: usize,
}

impl Script {
    /// `Some(bytes)` is a chunk (handed out across reads if the caller's
    /// buffer is smaller), `None` a read that times out.
    pub fn new(steps: impl IntoIterator<Item = Option<Vec<u8>>>) -> Script {
        Script {
            steps: steps.into_iter().collect(),
            reads: 0,
        }
    }

    /// `read` calls made so far, timeouts and the EOF included.
    pub fn reads(&self) -> usize {
        self.reads
    }
}

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        match self.steps.pop_front() {
            None => Ok(0),
            Some(None) => Err(io::ErrorKind::WouldBlock.into()),
            Some(Some(mut chunk)) => {
                let n = chunk.len().min(buf.len());
                buf[..n].copy_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    self.steps.push_front(Some(chunk.split_off(n)));
                }
                Ok(n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::write_frame;

    const PATIENT: Duration = Duration::from_secs(3600);
    const NEVER: fn() -> bool = || false;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        wire
    }

    fn payload(read: FrameRead<'_>) -> Vec<u8> {
        match read {
            FrameRead::Frame(p) => p.into_owned(),
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn a_whole_frame_is_one_read_and_a_burst_is_one_read_for_all_of_it() {
        let mut r = PatientReader::new(Script::new([Some(frame(b"only"))]));
        assert_eq!(payload(r.read_frame(PATIENT, NEVER).unwrap()), b"only");
        assert_eq!(r.get_ref().reads(), 1);

        // Three frames in one segment: the second and third cost nothing.
        let burst = [frame(b"one"), frame(b""), frame(&[7; 300])].concat();
        let mut r = PatientReader::new(Script::new([Some(burst)]));
        assert_eq!(payload(r.read_frame(PATIENT, NEVER).unwrap()), b"one");
        assert_eq!(payload(r.read_frame(PATIENT, NEVER).unwrap()), b"");
        assert_eq!(payload(r.read_frame(PATIENT, NEVER).unwrap()), [7; 300]);
        assert_eq!(r.get_ref().reads(), 1);
        assert_eq!(r.read_frame(PATIENT, NEVER).unwrap(), FrameRead::Closed);
        assert_eq!(r.get_ref().reads(), 2, "the EOF");
    }

    #[test]
    fn a_frame_larger_than_the_buffer_is_head_plus_remainder() {
        let body: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let wire = [frame(&body), frame(b"next")].concat();
        let mut r = PatientReader::with_capacity(64, Script::new([Some(wire)]));
        // One read fills the buffer; the second lands the other 940 bytes
        // in the payload itself, which is therefore owned, not borrowed.
        match r.read_frame(PATIENT, NEVER).unwrap() {
            FrameRead::Frame(Cow::Owned(p)) => assert_eq!(p, body),
            other => panic!("{other:?}"),
        }
        assert_eq!(r.get_ref().reads(), 2);
        assert_eq!(r.buf.len(), 64, "the buffer did not grow");
        // The remainder read stopped at the frame's end: still in step.
        assert_eq!(payload(r.read_frame(PATIENT, NEVER).unwrap()), b"next");
    }

    #[test]
    fn a_timeout_is_idle_only_between_frames() {
        let first = frame(b"first-payload");
        let second = frame(b"second");
        // Timeouts before the frame, after two header bytes, after the
        // header, and mid-payload; then a second frame right behind.
        let mut r = PatientReader::new(Script::new([
            None,
            Some(first[..2].to_vec()),
            None,
            Some(first[2..4].to_vec()),
            None,
            None,
            Some(first[4..9].to_vec()),
            None,
            Some([&first[9..], &second[..]].concat()),
        ]));
        assert_eq!(r.read_frame(PATIENT, NEVER).unwrap(), FrameRead::Idle);
        assert!(r.buffer().is_empty(), "idle consumed nothing");
        assert_eq!(
            payload(r.read_frame(PATIENT, NEVER).unwrap()),
            b"first-payload"
        );
        assert_eq!(payload(r.read_frame(PATIENT, NEVER).unwrap()), b"second");
        assert_eq!(r.read_frame(PATIENT, NEVER).unwrap(), FrameRead::Closed);
    }

    #[test]
    fn a_stalled_frame_is_an_error_never_idle() {
        // Two header bytes, then silence: with the stall limit spent (or
        // the caller abandoning) it is an error, never `Idle` — `Idle`
        // would restart framing two bytes late. Same for a frame that
        // overflows the buffer and stalls in its remainder.
        let big = frame(&[1; 100]);
        for script in [
            vec![Some(vec![0, 0]), None, None],
            vec![Some(big[..50].to_vec()), None, None],
        ] {
            for abandon in [false, true] {
                let limit = if abandon { PATIENT } else { Duration::ZERO };
                let mut r = PatientReader::with_capacity(16, Script::new(script.clone()));
                let err = r.read_frame(limit, || abandon).unwrap_err();
                assert!(
                    matches!(&err, ProtoError::Io(e) if e.kind() == io::ErrorKind::TimedOut),
                    "{err}"
                );
            }
        }
        // EOF mid-frame is an error too; an oversize length is refused.
        let mut r = PatientReader::new(Script::new([Some(vec![0, 0, 0, 9, 1, 2])]));
        assert!(r.read_frame(PATIENT, NEVER).is_err());
        let mut r = PatientReader::new(Script::new([Some(u32::MAX.to_be_bytes().to_vec())]));
        assert!(matches!(
            r.read_frame(PATIENT, NEVER),
            Err(ProtoError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn fill_keeps_a_partial_message_and_grows_for_a_long_one() {
        let mut r = PatientReader::with_capacity(
            8,
            Script::new([
                None,
                Some(b"abcdefgh".to_vec()),
                Some(b"ij".to_vec()),
                None,
                Some(b"klmnopqrstuvwxyz".to_vec()),
            ]),
        );
        assert_eq!(r.fill(PATIENT, NEVER).unwrap(), Fill::Idle);
        assert_eq!(r.fill(PATIENT, NEVER).unwrap(), Fill::Data);
        r.consume(6);
        // "gh" moves to the front; the timeout behind "ij" is a stall
        // (ridden out), not idleness, because a message is buffered.
        assert_eq!(r.fill(PATIENT, NEVER).unwrap(), Fill::Data);
        assert_eq!(r.buffer(), b"ghij");
        // 8 bytes of room, then 16, then 32: the buffer doubles.
        for len in [8, 16, 20] {
            assert_eq!(r.fill(PATIENT, NEVER).unwrap(), Fill::Data);
            assert_eq!(r.buffer(), &b"ghijklmnopqrstuvwxyz"[..len]);
        }
        assert_eq!(r.fill(PATIENT, NEVER).unwrap(), Fill::Closed);
        assert_eq!(r.buffer().len(), 20, "EOF mid-message: the bytes stay");
    }
}
