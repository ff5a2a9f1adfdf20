//! RFC 1123 HTTP date formatting (`Date:` headers) without external crates.

use std::time::{Duration, SystemTime, UNIX_EPOCH};

const DAY_NAMES: [&str; 7] = ["Thu", "Fri", "Sat", "Sun", "Mon", "Tue", "Wed"];
const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Calendar date/time in UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UtcDateTime {
    pub year: i64,
    pub month: u32,
    pub day: u32,
    pub hour: u32,
    pub minute: u32,
    pub second: u32,
    /// Days since the Unix epoch, used for weekday computation.
    days_since_epoch: i64,
}

impl UtcDateTime {
    /// Convert a `SystemTime` (clamped at the epoch) to UTC calendar time.
    pub fn from_system_time(t: SystemTime) -> UtcDateTime {
        let secs = t
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .as_secs() as i64;
        Self::from_unix_seconds(secs)
    }

    /// Convert seconds since the Unix epoch (non-negative) to calendar time.
    pub fn from_unix_seconds(secs: i64) -> UtcDateTime {
        let days = secs.div_euclid(86_400);
        let rem = secs.rem_euclid(86_400);
        let (year, month, day) = civil_from_days(days);
        UtcDateTime {
            year,
            month,
            day,
            hour: (rem / 3600) as u32,
            minute: ((rem % 3600) / 60) as u32,
            second: (rem % 60) as u32,
            days_since_epoch: days,
        }
    }

    /// Three-letter English weekday name. 1970-01-01 was a Thursday.
    pub fn weekday(&self) -> &'static str {
        DAY_NAMES[self.days_since_epoch.rem_euclid(7) as usize]
    }

    /// RFC 1123 format: `Sun, 06 Nov 1994 08:49:37 GMT`.
    pub fn to_rfc1123(&self) -> String {
        format!(
            "{}, {:02} {} {:04} {:02}:{:02}:{:02} GMT",
            self.weekday(),
            self.day,
            MONTH_NAMES[(self.month - 1) as usize],
            self.year,
            self.hour,
            self.minute,
            self.second
        )
    }
}

/// The current time formatted for a `Date:` header.
pub fn http_date_now() -> String {
    UtcDateTime::from_system_time(SystemTime::now()).to_rfc1123()
}

/// The value of a `Date` header that means "the time the response is
/// written": the head writer puts the current date in its place, from
/// `with_http_date`'s cache, so setting it costs nothing per request.
pub const NOW: &str = "now";

#[repr(C)]
struct Timespec {
    secs: i64,
    nanos: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// Unix seconds from the kernel's coarse wall clock: a read of the time
/// of the last tick (a few ms old at most), far cheaper than a precise
/// read, and precise enough for a clock that is shown in seconds.
fn unix_seconds_coarse() -> u64 {
    const CLOCK_REALTIME_COARSE: i32 = 5;
    let mut now = Timespec { secs: 0, nanos: 0 };
    // SAFETY: `now` is a valid, writable timespec for the call.
    let failed = unsafe { clock_gettime(CLOCK_REALTIME_COARSE, &mut now) } != 0;
    if failed || now.secs < 0 {
        return SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .as_secs();
    }
    now.secs as u64
}

/// Call `f` with the current time formatted for a `Date:` header.
///
/// Every response carries a `Date:` header, but the RFC 1123 string
/// only changes once per second — so each thread formats it once per
/// tick into a buffer of its own, with no lock and no allocation, from
/// the coarse wall clock.
pub(crate) fn with_http_date<R>(f: impl FnOnce(&[u8]) -> R) -> R {
    use std::cell::Cell;
    thread_local! {
        static CACHE: Cell<(u64, [u8; 29])> = const { Cell::new((u64::MAX, [0; 29])) };
    }
    let secs = unix_seconds_coarse();
    let (at, mut text) = CACHE.get();
    if at != secs {
        let formatted = UtcDateTime::from_unix_seconds(secs as i64).to_rfc1123();
        text.copy_from_slice(&formatted.as_bytes()[..29]);
        CACHE.set((secs, text));
    }
    f(&text)
}

/// [`http_date_now`] from `with_http_date`'s per-thread cache.
pub fn http_date_cached() -> String {
    with_http_date(|text| String::from_utf8_lossy(text).into_owned())
}

/// Parse an RFC 1123 date (`Sun, 06 Nov 1994 08:49:37 GMT`) to Unix
/// seconds. Returns `None` for anything else — including the obsolete
/// RFC 850 and asctime formats, which the Swala workloads never produce.
pub fn parse_rfc1123(s: &str) -> Option<u64> {
    // "Www, DD Mon YYYY HH:MM:SS GMT" — fixed-width, 29 bytes.
    let s = s.trim();
    if s.len() != 29 || !s.ends_with(" GMT") || s.as_bytes()[3] != b',' {
        return None;
    }
    let day: u32 = s.get(5..7)?.parse().ok()?;
    let mon_name = s.get(8..11)?;
    let month = MONTH_NAMES.iter().position(|m| *m == mon_name)? as u32 + 1;
    let year: i64 = s.get(12..16)?.parse().ok()?;
    let hour: u64 = s.get(17..19)?.parse().ok()?;
    let minute: u64 = s.get(20..22)?.parse().ok()?;
    let second: u64 = s.get(23..25)?.parse().ok()?;
    if day == 0 || day > 31 || hour > 23 || minute > 59 || second > 60 || year < 1970 {
        return None;
    }
    let days = days_from_civil(year, month, day);
    if days < 0 {
        return None;
    }
    Some(days as u64 * 86_400 + hour * 3600 + minute * 60 + second)
}

/// Inverse of `civil_from_days`: (y, m, d) → days since 1970-01-01.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y - era * 400; // [0, 399]
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64; // [0, 11]
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Howard Hinnant's `civil_from_days`: days since 1970-01-01 → (y, m, d).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day of era [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch() {
        let t = UtcDateTime::from_unix_seconds(0);
        assert_eq!((t.year, t.month, t.day), (1970, 1, 1));
        assert_eq!(t.weekday(), "Thu");
        assert_eq!(t.to_rfc1123(), "Thu, 01 Jan 1970 00:00:00 GMT");
    }

    #[test]
    fn rfc_canonical_example() {
        // RFC 2616's canonical example date.
        // Sun, 06 Nov 1994 08:49:37 GMT = 784111777 unix seconds.
        let t = UtcDateTime::from_unix_seconds(784_111_777);
        assert_eq!(t.to_rfc1123(), "Sun, 06 Nov 1994 08:49:37 GMT");
    }

    #[test]
    fn paper_era_date() {
        // 1998-07-28 12:00:00 UTC, around the HPDC'98 conference.
        let t = UtcDateTime::from_unix_seconds(901_627_200);
        assert_eq!((t.year, t.month, t.day), (1998, 7, 28));
        assert_eq!(t.weekday(), "Tue");
    }

    #[test]
    fn leap_year_handling() {
        // 2000-02-29 existed (divisible by 400).
        let t = UtcDateTime::from_unix_seconds(951_782_400);
        assert_eq!((t.year, t.month, t.day), (2000, 2, 29));
        // 1900 was not a leap year: 1900-03-01 follows 1900-02-28, but our
        // clock starts at 1970 so check 2100 boundary arithmetic instead
        // via 2100-02-28 + 1 day = 2100-03-01.
        let feb28_2100 = 4_107_456_000; // 2100-02-28 00:00:00 UTC
        let t = UtcDateTime::from_unix_seconds(feb28_2100 + 86_400);
        assert_eq!((t.year, t.month, t.day), (2100, 3, 1));
    }

    #[test]
    fn weekdays_cycle() {
        for i in 0..14 {
            let t = UtcDateTime::from_unix_seconds(i * 86_400);
            assert_eq!(t.weekday(), DAY_NAMES[(i % 7) as usize]);
        }
    }

    #[test]
    fn now_formats() {
        let s = http_date_now();
        assert!(s.ends_with(" GMT"));
        assert_eq!(s.len(), 29);
    }

    #[test]
    fn the_coarse_clock_agrees_with_the_precise_one() {
        let precise = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_secs();
        assert!(unix_seconds_coarse().abs_diff(precise) <= 1);
    }

    #[test]
    fn the_cached_date_is_the_formatted_date() {
        let cached = http_date_cached();
        let fresh = http_date_now();
        // The two reads may straddle a second boundary.
        let (a, b) = (
            parse_rfc1123(&cached).unwrap(),
            parse_rfc1123(&fresh).unwrap(),
        );
        assert!(b >= a && b - a <= 1, "{cached} vs {fresh}");
        assert_eq!(with_http_date(|t| t.len()), 29);
    }

    #[test]
    fn parse_roundtrips_format() {
        for secs in [0u64, 784_111_777, 901_627_200, 951_782_400, 1_700_000_000] {
            let text = UtcDateTime::from_unix_seconds(secs as i64).to_rfc1123();
            assert_eq!(parse_rfc1123(&text), Some(secs), "{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "Sun, 06 Nov 1994 08:49:37 PST",  // not GMT
            "Sunday, 06-Nov-94 08:49:37 GMT", // RFC 850 form
            "Sun Nov  6 08:49:37 1994",       // asctime form
            "Sun, 06 Xxx 1994 08:49:37 GMT",  // bad month
            "Sun, 40 Nov 1994 08:49:37 GMT",  // bad day
            "Sun, 06 Nov 1994 25:49:37 GMT",  // bad hour
            "Sun, 06 Nov 1969 08:49:37 GMT",  // pre-epoch
        ] {
            assert_eq!(parse_rfc1123(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn parse_accepts_surrounding_whitespace() {
        assert_eq!(parse_rfc1123("  Thu, 01 Jan 1970 00:00:00 GMT "), Some(0));
    }

    #[test]
    fn month_boundaries() {
        // 1997-09-01 (start of the ADL log window studied in the paper).
        let t = UtcDateTime::from_unix_seconds(873_072_000);
        assert_eq!((t.year, t.month, t.day), (1997, 9, 1));
        // 1997-10-31 (end of the window).
        let t = UtcDateTime::from_unix_seconds(878_256_000);
        assert_eq!((t.year, t.month, t.day), (1997, 10, 31));
    }
}
