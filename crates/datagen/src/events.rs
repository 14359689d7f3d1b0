//! Planted ground-truth events.
//!
//! The paper's motivating example (Figure 1) hinges on hurricanes Irene
//! (August 2011) and Sandy (October 2012). We plant analogous events — plus
//! winter snowstorms and activity-suppressing holidays — with known windows
//! and intensities, giving every generated coupling a verifiable cause.

use polygamy_stdata::{CivilDate, Timestamp};

/// What kind of disruption an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Extreme wind + rain; crushes outdoor activity.
    Hurricane,
    /// Heavy snowfall; suppresses biking, slows traffic.
    Snowstorm,
    /// Reduced city activity (Thanksgiving, Christmas, New Year).
    Holiday,
}

/// One event with a half-open time window.
#[derive(Debug, Clone, PartialEq)]
pub struct EventWindow {
    /// Name for reports ("Irene-like", …).
    pub name: String,
    /// Kind.
    pub kind: EventKind,
    /// Window start (inclusive).
    pub start: Timestamp,
    /// Window end (exclusive).
    pub end: Timestamp,
    /// Peak intensity in `[0, 1]`.
    pub intensity: f64,
}

impl EventWindow {
    /// True if `ts` falls inside the window.
    pub fn contains(&self, ts: Timestamp) -> bool {
        ts >= self.start && ts < self.end
    }

    /// Intensity at `ts`: a triangular ramp peaking mid-window (0 outside).
    pub fn intensity_at(&self, ts: Timestamp) -> f64 {
        if !self.contains(ts) {
            return 0.0;
        }
        let span = (self.end - self.start) as f64;
        let pos = (ts - self.start) as f64 / span; // [0, 1)
        let tri = 1.0 - (2.0 * pos - 1.0).abs();
        self.intensity * tri
    }
}

/// The full planted-event calendar.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UrbanEvents {
    /// All events, chronological.
    pub events: Vec<EventWindow>,
}

impl UrbanEvents {
    /// The default calendar covering `[start_year, start_year + n_years)`:
    /// an Irene-like hurricane in the first August, a Sandy-like hurricane
    /// in the second October (when covered), two snowstorms per winter and
    /// the usual holidays.
    pub fn default_calendar(start_year: i32, n_years: usize) -> Self {
        let mut events = Vec::new();
        for (i, year) in (start_year..start_year + n_years as i32).enumerate() {
            if i == 0 {
                events.push(EventWindow {
                    name: format!("Irene-like-{year}"),
                    kind: EventKind::Hurricane,
                    start: CivilDate::new(year, 8, 27).at_hour(12),
                    end: CivilDate::new(year, 8, 29).at_hour(12),
                    intensity: 0.9,
                });
            }
            if i == 1 {
                events.push(EventWindow {
                    name: format!("Sandy-like-{year}"),
                    kind: EventKind::Hurricane,
                    start: CivilDate::new(year, 10, 28).at_hour(18),
                    end: CivilDate::new(year, 10, 31).at_hour(6),
                    intensity: 1.0,
                });
            }
            // Two snowstorms each winter (January + February).
            events.push(EventWindow {
                name: format!("snowstorm-jan-{year}"),
                kind: EventKind::Snowstorm,
                start: CivilDate::new(year, 1, 22).at_hour(6),
                end: CivilDate::new(year, 1, 24).at_hour(0),
                intensity: 0.8,
            });
            events.push(EventWindow {
                name: format!("snowstorm-feb-{year}"),
                kind: EventKind::Snowstorm,
                start: CivilDate::new(year, 2, 9).at_hour(0),
                end: CivilDate::new(year, 2, 10).at_hour(12),
                intensity: 0.6,
            });
            // Holidays.
            events.push(EventWindow {
                name: format!("thanksgiving-{year}"),
                kind: EventKind::Holiday,
                start: thanksgiving(year).at_hour(0),
                end: thanksgiving(year)
                    .at_hour(0)
                    .checked_add(86_400 * 2)
                    .expect("no overflow"),
                intensity: 0.5,
            });
            events.push(EventWindow {
                name: format!("christmas-{year}"),
                kind: EventKind::Holiday,
                start: CivilDate::new(year, 12, 24).at_hour(12),
                end: CivilDate::new(year, 12, 26).at_hour(12),
                intensity: 0.6,
            });
            events.push(EventWindow {
                name: format!("new-year-{year}"),
                kind: EventKind::Holiday,
                start: CivilDate::new(year, 1, 1).at_hour(0),
                end: CivilDate::new(year, 1, 2).at_hour(0),
                intensity: 0.4,
            });
        }
        events.sort_by_key(|e| e.start);
        Self { events }
    }

    /// Total intensity of events of `kind` at `ts`.
    pub fn intensity(&self, kind: EventKind, ts: Timestamp) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.intensity_at(ts))
            .fold(0.0, f64::max)
    }

    /// Events of one kind.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &EventWindow> {
        self.events.iter().filter(move |e| e.kind == kind)
    }
}

/// Fourth Thursday of November.
fn thanksgiving(year: i32) -> CivilDate {
    let first = CivilDate::new(year, 11, 1);
    // weekday(): 0 = Monday … 3 = Thursday.
    let offset = (3 + 7 - i64::from(first.weekday())) % 7;
    CivilDate::new(year, 11, 1 + offset as u8 + 21)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_has_expected_events() {
        let ev = UrbanEvents::default_calendar(2011, 2);
        assert!(ev.events.iter().any(|e| e.name.contains("Irene")));
        assert!(ev.events.iter().any(|e| e.name.contains("Sandy")));
        assert_eq!(ev.of_kind(EventKind::Hurricane).count(), 2);
        assert_eq!(ev.of_kind(EventKind::Snowstorm).count(), 4);
        // Sorted chronologically.
        for w in ev.events.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn intensity_ramp() {
        let e = EventWindow {
            name: "x".into(),
            kind: EventKind::Hurricane,
            start: 0,
            end: 100,
            intensity: 1.0,
        };
        assert_eq!(e.intensity_at(-1), 0.0);
        assert_eq!(e.intensity_at(100), 0.0);
        assert!(e.intensity_at(50) > 0.9);
        assert!(e.intensity_at(10) < e.intensity_at(40));
    }

    #[test]
    fn hurricane_intensity_peaks_during_sandy() {
        let ev = UrbanEvents::default_calendar(2011, 2);
        let sandy_peak = CivilDate::new(2012, 10, 29).at_hour(18);
        assert!(ev.intensity(EventKind::Hurricane, sandy_peak) > 0.5);
        let calm = CivilDate::new(2012, 6, 1).at_hour(12);
        assert_eq!(ev.intensity(EventKind::Hurricane, calm), 0.0);
    }

    #[test]
    fn thanksgiving_is_fourth_thursday() {
        // 2011-11-24 and 2012-11-22 were the US Thanksgivings.
        assert_eq!(thanksgiving(2011), CivilDate::new(2011, 11, 24));
        assert_eq!(thanksgiving(2012), CivilDate::new(2012, 11, 22));
        assert_eq!(thanksgiving(2011).weekday(), 3);
    }
}
