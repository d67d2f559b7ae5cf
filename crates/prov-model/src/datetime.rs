//! Minimal `xsd:dateTime` support.
//!
//! PROV timestamps (`prov:startTime`, `prov:endTime`, generation/usage
//! times) are `xsd:dateTime` literals. This module implements a small
//! UTC-only datetime type with ISO-8601 parsing/formatting built on the
//! proleptic-Gregorian civil-day algorithms of Howard Hinnant, avoiding a
//! dependency on a calendar crate.

use crate::error::ProvError;
use std::fmt;

/// A UTC timestamp with microsecond resolution, printed as
/// `YYYY-MM-DDThh:mm:ss[.ffffff]Z`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct XsdDateTime {
    /// Whole seconds since the Unix epoch (may be negative).
    pub epoch_secs: i64,
    /// Sub-second microseconds, `0..=999_999`.
    pub micros: u32,
}

impl XsdDateTime {
    /// Builds a timestamp from epoch seconds and microseconds.
    ///
    /// Microseconds beyond one second are carried into the seconds field.
    pub fn new(epoch_secs: i64, micros: u32) -> Self {
        let carry = (micros / 1_000_000) as i64;
        XsdDateTime {
            epoch_secs: epoch_secs + carry,
            micros: micros % 1_000_000,
        }
    }

    /// The current wall-clock time.
    pub fn now() -> Self {
        match std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
            Ok(d) => XsdDateTime::new(d.as_secs() as i64, d.subsec_micros()),
            Err(e) => {
                // Clock before the epoch: count backwards.
                let d = e.duration();
                XsdDateTime::new(-(d.as_secs() as i64) - 1, 1_000_000 - d.subsec_micros())
            }
        }
    }

    /// Total microseconds since the epoch.
    pub fn epoch_micros(&self) -> i64 {
        self.epoch_secs * 1_000_000 + self.micros as i64
    }

    /// Builds from total microseconds since the epoch.
    pub fn from_epoch_micros(us: i64) -> Self {
        let secs = us.div_euclid(1_000_000);
        let micros = us.rem_euclid(1_000_000) as u32;
        XsdDateTime {
            epoch_secs: secs,
            micros,
        }
    }

    /// Parses an ISO-8601 `xsd:dateTime` string.
    ///
    /// Accepts `Z`, `+hh:mm` / `-hh:mm` offsets (normalized to UTC) and an
    /// optional fractional-seconds part of up to 9 digits (truncated to
    /// microseconds).
    pub fn parse(s: &str) -> Result<Self, ProvError> {
        let err = || ProvError::BadDateTime(s.to_string());
        let bytes = s.as_bytes();
        // Date part: YYYY-MM-DD (year may have a sign and >4 digits).
        let t_pos = s.find('T').ok_or_else(err)?;
        let (date, rest) = s.split_at(t_pos);
        let rest = &rest[1..];

        let mut dit = date.splitn(3, '-');
        // A leading '-' would create an empty first segment; handle sign.
        let (neg, date_body) = if let Some(stripped) = date.strip_prefix('-') {
            (true, stripped)
        } else {
            (false, date)
        };
        if neg {
            dit = date_body.splitn(3, '-');
        }
        let year: i64 = dit.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let year = if neg { -year } else { year };
        let month: u32 = dit.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let day: u32 = dit.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if !(1..=12).contains(&month) || day < 1 || day > days_in_month(year, month) {
            return Err(err());
        }

        // Time part: hh:mm:ss[.frac][Z|±hh:mm]
        let (time_str, offset_secs) = split_offset(rest).ok_or_else(err)?;
        let mut tit = time_str.splitn(3, ':');
        let hour: u32 = tit.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let minute: u32 = tit.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let sec_part = tit.next().ok_or_else(err)?;
        let (sec_str, frac_str) = match sec_part.split_once('.') {
            Some((s, f)) => (s, Some(f)),
            None => (sec_part, None),
        };
        let second: u32 = sec_str.parse().map_err(|_| err())?;
        if hour > 23 || minute > 59 || second > 60 {
            return Err(err());
        }
        let micros = match frac_str {
            None => 0,
            Some(f) => {
                if f.is_empty() || f.len() > 9 || !f.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(err());
                }
                let mut padded = f.to_string();
                while padded.len() < 6 {
                    padded.push('0');
                }
                padded[..6].parse::<u32>().map_err(|_| err())?
            }
        };
        let _ = bytes;

        let days = days_from_civil(year, month, day);
        let secs =
            days * 86_400 + hour as i64 * 3600 + minute as i64 * 60 + second as i64 - offset_secs;
        Ok(XsdDateTime {
            epoch_secs: secs,
            micros,
        })
    }

    /// Decomposes into `(year, month, day, hour, minute, second)` in UTC.
    fn civil(&self) -> (i64, u32, u32, u32, u32, u32) {
        let days = self.epoch_secs.div_euclid(86_400);
        let secs_of_day = self.epoch_secs.rem_euclid(86_400);
        let (y, m, d) = civil_from_days(days);
        let hour = (secs_of_day / 3600) as u32;
        let minute = (secs_of_day % 3600 / 60) as u32;
        let second = (secs_of_day % 60) as u32;
        (y, m, d, hour, minute, second)
    }
}

impl fmt::Display for XsdDateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d, h, mi, s) = self.civil();
        if self.micros == 0 {
            write!(f, "{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}Z")
        } else {
            write!(
                f,
                "{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}.{:06}Z",
                self.micros
            )
        }
    }
}

/// Splits the timezone designator off a time string, returning the bare
/// time and the offset in seconds east of UTC.
fn split_offset(s: &str) -> Option<(&str, i64)> {
    if let Some(stripped) = s.strip_suffix('Z') {
        return Some((stripped, 0));
    }
    // Look for a '+' or '-' after the seconds field. The time itself
    // contains ':' but no '+'/'-' before a potential offset.
    for (i, c) in s.char_indices().rev() {
        match c {
            '+' | '-' => {
                let (time, off) = s.split_at(i);
                let sign = if c == '+' { 1 } else { -1 };
                let off = &off[1..];
                let (oh, om) = off.split_once(':')?;
                let oh: i64 = oh.parse().ok()?;
                let om: i64 = om.parse().ok()?;
                if oh > 14 || om > 59 {
                    return None;
                }
                return Some((time, sign * (oh * 3600 + om * 60)));
            }
            ':' | '.' => continue,
            _ if c.is_ascii_digit() => continue,
            _ => return None,
        }
    }
    // No designator: interpret as UTC (lenient, PROV files in the wild
    // frequently omit it).
    Some((s, 0))
}

fn is_leap(y: i64) -> bool {
    y % 4 == 0 && (y % 100 != 0 || y % 400 == 0)
}

fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap(y) => 29,
        2 => 28,
        _ => 0,
    }
}

/// Days since 1970-01-01 for a civil date (Hinnant's algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // [0, 11], March = 0
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01 (Hinnant's algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
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
    fn epoch_is_1970() {
        let t = XsdDateTime::new(0, 0);
        assert_eq!(t.to_string(), "1970-01-01T00:00:00Z");
    }

    #[test]
    fn parse_format_roundtrip() {
        for s in [
            "2025-07-05T12:34:56Z",
            "2000-02-29T23:59:59Z",
            "1999-12-31T00:00:00.000123Z",
            "2038-01-19T03:14:07Z",
        ] {
            let t = XsdDateTime::parse(s).unwrap();
            assert_eq!(t.to_string(), s, "roundtrip {s}");
        }
    }

    #[test]
    fn parse_applies_offsets() {
        let utc = XsdDateTime::parse("2025-01-01T12:00:00Z").unwrap();
        let plus = XsdDateTime::parse("2025-01-01T14:00:00+02:00").unwrap();
        let minus = XsdDateTime::parse("2025-01-01T07:00:00-05:00").unwrap();
        assert_eq!(utc, plus);
        assert_eq!(utc, minus);
    }

    #[test]
    fn parse_without_designator_is_utc() {
        let a = XsdDateTime::parse("2025-01-01T12:00:00").unwrap();
        let b = XsdDateTime::parse("2025-01-01T12:00:00Z").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "not a date",
            "2025-13-01T00:00:00Z",
            "2025-02-30T00:00:00Z",
            "2025-01-01T24:00:01Z",
            "2025-01-01",
            "2025-01-01T00:00:00.Z",
            "2025-01-01T00:00:00.1234567890Z",
        ] {
            assert!(XsdDateTime::parse(s).is_err(), "should reject {s}");
        }
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(is_leap(2024));
        assert!(!is_leap(2025));
    }

    #[test]
    fn civil_day_roundtrip_wide_range() {
        // Every ~1000 days across several centuries.
        let mut day = -200_000i64;
        while day < 200_000 {
            let (y, m, d) = civil_from_days(day);
            assert_eq!(days_from_civil(y, m, d), day);
            day += 997;
        }
    }

    #[test]
    fn micros_carry_and_ordering() {
        let t = XsdDateTime::new(10, 2_500_000);
        assert_eq!(t.epoch_secs, 12);
        assert_eq!(t.micros, 500_000);
        let a = XsdDateTime::new(10, 1);
        let b = XsdDateTime::new(10, 2);
        assert!(a < b);
    }

    #[test]
    fn epoch_micros_roundtrip_negative() {
        for us in [-1_i64, -1_000_001, 0, 1, 999_999, 1_000_000, 123_456_789] {
            let t = XsdDateTime::from_epoch_micros(us);
            assert_eq!(t.epoch_micros(), us);
        }
    }

    #[test]
    fn now_formats() {
        let t = XsdDateTime::now();
        let s = t.to_string();
        assert!(s.ends_with('Z') && s.contains('T'));
        // Parse back what we printed.
        let back = XsdDateTime::parse(&s).unwrap();
        assert_eq!(back, t);
    }
}
