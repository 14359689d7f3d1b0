//! Civil-calendar arithmetic and temporal resolutions.
//!
//! The paper evaluates relationships at hourly, daily, weekly and monthly
//! temporal resolutions (Figure 6). Weeks and months do not nest inside each
//! other, so each resolution needs genuine calendar arithmetic rather than a
//! fixed step size. We implement the proleptic Gregorian calendar with
//! Hinnant's `days_from_civil` algorithm — exact over the full `i64` range we
//! care about and free of external dependencies.

use std::fmt;

/// Seconds since the Unix epoch (1970-01-01T00:00:00Z).
pub type Timestamp = i64;

/// Seconds per hour/day, used for the fixed-width resolutions.
pub const SECS_PER_HOUR: i64 = 3_600;
/// Seconds per day.
pub const SECS_PER_DAY: i64 = 86_400;

/// A date in the proleptic Gregorian calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CivilDate {
    /// Calendar year (e.g. 2012).
    pub year: i32,
    /// Month in `1..=12`.
    pub month: u8,
    /// Day of month in `1..=31`.
    pub day: u8,
}

impl CivilDate {
    /// Creates a date; panics in debug builds if the fields are out of range.
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        debug_assert!((1..=12).contains(&month), "month out of range: {month}");
        debug_assert!((1..=31).contains(&day), "day out of range: {day}");
        Self { year, month, day }
    }

    /// Days since 1970-01-01 (negative before the epoch).
    ///
    /// Howard Hinnant's `days_from_civil` algorithm.
    pub fn days_from_civil(self) -> i64 {
        let y = i64::from(self.year) - i64::from(self.month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = i64::from(self.month);
        let d = i64::from(self.day);
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146_097 + doe - 719_468
    }

    /// Inverse of [`CivilDate::days_from_civil`].
    pub fn from_days(z: i64) -> Self {
        let z = z + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
        Self {
            year: (y + i64::from(m <= 2)) as i32,
            month: m as u8,
            day: d as u8,
        }
    }

    /// Timestamp at midnight (UTC) of this date.
    pub fn timestamp(self) -> Timestamp {
        self.days_from_civil() * SECS_PER_DAY
    }

    /// Timestamp at `hour:00:00` of this date.
    pub fn at_hour(self, hour: u8) -> Timestamp {
        debug_assert!(hour < 24);
        self.timestamp() + i64::from(hour) * SECS_PER_HOUR
    }

    /// Months since January 1970 (the month-bucket index).
    pub fn months_from_epoch(self) -> i64 {
        (i64::from(self.year) - 1970) * 12 + i64::from(self.month) - 1
    }

    /// Inverse of [`CivilDate::months_from_epoch`], pinned to day 1.
    pub fn from_months(m: i64) -> Self {
        let year = 1970 + m.div_euclid(12);
        let month = m.rem_euclid(12) + 1;
        Self::new(year as i32, month as u8, 1)
    }

    /// Day of week, 0 = Monday … 6 = Sunday.
    pub fn weekday(self) -> u8 {
        // 1970-01-01 was a Thursday (weekday 3 in Monday-based numbering).
        (self.days_from_civil() + 3).rem_euclid(7) as u8
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Decomposes a timestamp into its civil date (UTC).
pub fn date_of(ts: Timestamp) -> CivilDate {
    CivilDate::from_days(ts.div_euclid(SECS_PER_DAY))
}

/// The temporal resolutions supported by the framework (paper Figure 6).
///
/// Ordering is from finest (`Hour`) to coarsest (`Month`); note that `Week`
/// and `Month` are *incompatible* with each other (neither nests in the
/// other), which [`crate::resolution::ResolutionDag`] encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TemporalResolution {
    /// Hourly buckets.
    Hour,
    /// Daily buckets (UTC midnight aligned).
    Day,
    /// Weekly buckets (Monday aligned).
    Week,
    /// Calendar-month buckets.
    Month,
}

impl TemporalResolution {
    /// All resolutions, finest first.
    pub const ALL: [TemporalResolution; 4] = [
        TemporalResolution::Hour,
        TemporalResolution::Day,
        TemporalResolution::Week,
        TemporalResolution::Month,
    ];

    /// Maps a timestamp to its bucket index at this resolution.
    ///
    /// Bucket indices are globally meaningful (hours/days/weeks/months since
    /// the epoch), so two data sets bucketed independently line up.
    pub fn bucket_of(self, ts: Timestamp) -> i64 {
        match self {
            TemporalResolution::Hour => ts.div_euclid(SECS_PER_HOUR),
            TemporalResolution::Day => ts.div_euclid(SECS_PER_DAY),
            TemporalResolution::Week => {
                // Shift so that bucket boundaries fall on Mondays.
                (ts.div_euclid(SECS_PER_DAY) + 3).div_euclid(7)
            }
            TemporalResolution::Month => date_of(ts).months_from_epoch(),
        }
    }

    /// The timestamp at which `bucket` starts.
    pub fn bucket_start(self, bucket: i64) -> Timestamp {
        match self {
            TemporalResolution::Hour => bucket * SECS_PER_HOUR,
            TemporalResolution::Day => bucket * SECS_PER_DAY,
            TemporalResolution::Week => (bucket * 7 - 3) * SECS_PER_DAY,
            TemporalResolution::Month => CivilDate::from_months(bucket).timestamp(),
        }
    }

    /// Number of buckets spanned by the half-open timestamp range
    /// `[start, end)`. Returns 0 for empty ranges.
    pub fn buckets_in_range(self, start: Timestamp, end: Timestamp) -> usize {
        if end <= start {
            return 0;
        }
        (self.bucket_of(end - 1) - self.bucket_of(start) + 1) as usize
    }

    /// The variant's Rust name (`"Hour"`): how every JSON boundary writes
    /// it.
    pub fn name(self) -> &'static str {
        match self {
            TemporalResolution::Hour => "Hour",
            TemporalResolution::Day => "Day",
            TemporalResolution::Week => "Week",
            TemporalResolution::Month => "Month",
        }
    }

    /// Stable one-byte wire code for on-disk persistence. Codes are part of
    /// the store format and must never be renumbered; add new variants with
    /// fresh codes instead.
    pub fn code(self) -> u8 {
        match self {
            TemporalResolution::Hour => 0,
            TemporalResolution::Day => 1,
            TemporalResolution::Week => 2,
            TemporalResolution::Month => 3,
        }
    }

    /// Inverse of [`TemporalResolution::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(TemporalResolution::Hour),
            1 => Some(TemporalResolution::Day),
            2 => Some(TemporalResolution::Week),
            3 => Some(TemporalResolution::Month),
            _ => None,
        }
    }

    /// A short lowercase label matching the paper's notation.
    pub fn label(self) -> &'static str {
        match self {
            TemporalResolution::Hour => "hour",
            TemporalResolution::Day => "day",
            TemporalResolution::Week => "week",
            TemporalResolution::Month => "month",
        }
    }

    /// True if data at this resolution can be aggregated into `coarser`
    /// (the temporal half of the paper's Figure 6 DAG).
    pub fn convertible_to(self, coarser: TemporalResolution) -> bool {
        use TemporalResolution::*;
        match (self, coarser) {
            (a, b) if a == b => true,
            (Hour, Day) | (Hour, Week) | (Hour, Month) => true,
            (Day, Week) | (Day, Month) => true,
            // Weeks straddle month boundaries and vice versa.
            (Week, Month) | (Month, Week) => false,
            _ => false,
        }
    }
}

impl fmt::Display for TemporalResolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Seasonal interval used when computing feature thresholds (paper
/// Section 3.3, "Adjusting for Seasonal Variations").
///
/// Hourly functions use monthly intervals; daily functions use
/// quarter-yearly intervals; coarser functions use yearly intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeasonalInterval {
    /// One interval per calendar month.
    Monthly,
    /// One interval per calendar quarter.
    Quarterly,
    /// One interval per calendar year.
    Yearly,
}

impl SeasonalInterval {
    /// The interval the paper prescribes for a given temporal resolution.
    pub fn for_resolution(res: TemporalResolution) -> Self {
        match res {
            TemporalResolution::Hour => SeasonalInterval::Monthly,
            TemporalResolution::Day => SeasonalInterval::Quarterly,
            TemporalResolution::Week | TemporalResolution::Month => SeasonalInterval::Yearly,
        }
    }

    /// Maps a timestamp to its seasonal-interval index.
    pub fn interval_of(self, ts: Timestamp) -> i64 {
        let d = date_of(ts);
        match self {
            SeasonalInterval::Monthly => d.months_from_epoch(),
            SeasonalInterval::Quarterly => {
                (i64::from(d.year) - 1970) * 4 + i64::from(d.month - 1) / 3
            }
            SeasonalInterval::Yearly => i64::from(d.year) - 1970,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_codes_roundtrip() {
        for t in TemporalResolution::ALL {
            assert_eq!(TemporalResolution::from_code(t.code()), Some(t));
        }
        assert_eq!(TemporalResolution::from_code(200), None);
    }

    #[test]
    fn epoch_roundtrip() {
        let d = CivilDate::new(1970, 1, 1);
        assert_eq!(d.days_from_civil(), 0);
        assert_eq!(CivilDate::from_days(0), d);
    }

    #[test]
    fn known_dates() {
        assert_eq!(CivilDate::new(2000, 3, 1).days_from_civil(), 11_017);
        assert_eq!(CivilDate::new(2012, 10, 29).days_from_civil(), 15_642); // Sandy landfall
        assert_eq!(CivilDate::from_days(15_642), CivilDate::new(2012, 10, 29));
    }

    #[test]
    fn date_roundtrip_sweep() {
        for z in -200_000..200_000 {
            let d = CivilDate::from_days(z);
            assert_eq!(d.days_from_civil(), z, "roundtrip failed at {z} ({d})");
        }
    }

    #[test]
    fn weekday_known() {
        // 1970-01-01 was a Thursday.
        assert_eq!(CivilDate::new(1970, 1, 1).weekday(), 3);
        // 2012-10-29 (Sandy landfall) was a Monday.
        assert_eq!(CivilDate::new(2012, 10, 29).weekday(), 0);
        // 2011-08-28 (Irene over NYC) was a Sunday.
        assert_eq!(CivilDate::new(2011, 8, 28).weekday(), 6);
    }

    #[test]
    fn leap_years() {
        // Through the day count every bucket is derived from: February has
        // a 29th in 2000 and 2012, none in 1900 and 2011.
        let february_days = |year: i32| {
            CivilDate::new(year, 3, 1).days_from_civil()
                - CivilDate::new(year, 2, 1).days_from_civil()
        };
        assert_eq!(february_days(2000), 29);
        assert_eq!(february_days(2012), 29);
        assert_eq!(february_days(1900), 28);
        assert_eq!(february_days(2011), 28);
        assert_eq!(
            CivilDate::from_days(CivilDate::new(2012, 2, 28).days_from_civil() + 1),
            CivilDate::new(2012, 2, 29)
        );
    }

    #[test]
    fn hour_buckets() {
        let res = TemporalResolution::Hour;
        assert_eq!(res.bucket_of(0), 0);
        assert_eq!(res.bucket_of(3_599), 0);
        assert_eq!(res.bucket_of(3_600), 1);
        assert_eq!(res.bucket_of(-1), -1);
        assert_eq!(res.bucket_start(1), 3_600);
    }

    #[test]
    fn week_buckets_align_to_monday() {
        let res = TemporalResolution::Week;
        // Monday 2012-10-29 starts a new week bucket.
        let monday = CivilDate::new(2012, 10, 29).timestamp();
        let sunday = monday - SECS_PER_DAY;
        assert_eq!(res.bucket_of(monday), res.bucket_of(sunday) + 1);
        assert_eq!(res.bucket_start(res.bucket_of(monday)), monday);
        // Every bucket start must be a Monday.
        for b in -10..10 {
            assert_eq!(date_of(res.bucket_start(b)).weekday(), 0, "bucket {b}");
        }
    }

    #[test]
    fn month_buckets() {
        let res = TemporalResolution::Month;
        let jan31 = CivilDate::new(2012, 1, 31).timestamp();
        let feb1 = CivilDate::new(2012, 2, 1).timestamp();
        assert_eq!(res.bucket_of(feb1), res.bucket_of(jan31) + 1);
        assert_eq!(res.bucket_start(res.bucket_of(feb1)), feb1);
        assert_eq!(res.bucket_of(CivilDate::new(1970, 1, 15).timestamp()), 0);
        assert_eq!(res.bucket_of(CivilDate::new(1969, 12, 15).timestamp()), -1);
    }

    #[test]
    fn buckets_in_range_counts() {
        let res = TemporalResolution::Day;
        let start = CivilDate::new(2012, 1, 1).timestamp();
        let end = CivilDate::new(2013, 1, 1).timestamp();
        assert_eq!(res.buckets_in_range(start, end), 366); // 2012 is a leap year
        assert_eq!(res.buckets_in_range(start, start), 0);
        assert_eq!(TemporalResolution::Month.buckets_in_range(start, end), 12);
    }

    #[test]
    fn convertibility_matches_figure6() {
        use TemporalResolution::*;
        assert!(Hour.convertible_to(Day));
        assert!(Hour.convertible_to(Month));
        assert!(Day.convertible_to(Week));
        assert!(Day.convertible_to(Month));
        assert!(!Week.convertible_to(Month));
        assert!(!Month.convertible_to(Week));
        assert!(!Day.convertible_to(Hour));
        assert!(Week.convertible_to(Week));
    }

    #[test]
    fn seasonal_intervals() {
        let ts = CivilDate::new(2012, 5, 17).timestamp();
        assert_eq!(
            SeasonalInterval::Monthly.interval_of(ts),
            (2012 - 1970) * 12 + 4
        );
        assert_eq!(
            SeasonalInterval::Quarterly.interval_of(ts),
            (2012 - 1970) * 4 + 1
        );
        assert_eq!(SeasonalInterval::Yearly.interval_of(ts), 42);
        assert_eq!(
            SeasonalInterval::for_resolution(TemporalResolution::Hour),
            SeasonalInterval::Monthly
        );
        assert_eq!(
            SeasonalInterval::for_resolution(TemporalResolution::Day),
            SeasonalInterval::Quarterly
        );
    }
}
