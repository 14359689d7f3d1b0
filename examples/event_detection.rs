//! Event detection with extreme features (paper Sections 3.3 + 6.3): the
//! box-plot outlier thresholds isolate hurricane hours in the wind-speed
//! function, and those extreme features coincide with collapses in taxi
//! activity — the Figure 1 story, computed rather than eyeballed.
//!
//! ```text
//! cargo run --release --example event_detection
//! ```

use polygamy_core::pipeline::field_features;
use polygamy_datagen::{urban_collection, EventKind, UrbanConfig};
use polygamy_stdata::temporal::date_of;
use polygamy_stdata::{aggregate, AggregateKind, FunctionKind, TemporalResolution};

fn main() {
    let collection = urban_collection(UrbanConfig {
        n_years: 2,
        scale: 0.05,
        extra_weather_attrs: 0,
        ..UrbanConfig::default()
    });
    let weather = collection.dataset("weather").expect("generated");
    let wind_attr = weather.attribute_index("wind-speed").expect("attribute");
    let field = aggregate(
        weather,
        &collection.geometry().city,
        TemporalResolution::Hour,
        FunctionKind::Attribute {
            attr: wind_attr,
            agg: AggregateKind::Mean,
        },
        None,
    )
    .expect("wind field");

    let (features, thresholds) = field_features(&[vec![]], &field);
    println!(
        "wind-speed function: {} hours, {} seasonal intervals",
        field.n_steps,
        thresholds.interval_ids.len()
    );
    println!(
        "salient positive features: {}  extreme positive features: {}",
        features.salient.pos.count_ones(),
        features.extreme.pos.count_ones()
    );

    // Group extreme-feature hours into contiguous events.
    let mut events: Vec<(usize, usize)> = Vec::new();
    for v in features.extreme.pos.iter_ones() {
        match events.last_mut() {
            Some((_, end)) if v <= *end + 6 => *end = v,
            _ => events.push((v, v)),
        }
    }
    println!("\ndetected extreme wind events:");
    for (start, end) in &events {
        println!(
            "  {} .. {}  ({} hours)",
            date_of(field.step_start(*start)),
            date_of(field.step_start(*end)),
            end - start + 1
        );
    }

    // Compare against the planted ground truth.
    println!("\nplanted hurricanes:");
    let mut matched = 0;
    for ev in collection.events.of_kind(EventKind::Hurricane) {
        let hit = events.iter().any(|&(s, e)| {
            let t0 = field.step_start(s);
            let t1 = field.step_start(e);
            t1 >= ev.start && t0 < ev.end
        });
        if hit {
            matched += 1;
        }
        println!(
            "  {} ({} .. {}): {}",
            ev.name,
            date_of(ev.start),
            date_of(ev.end),
            if hit { "DETECTED" } else { "missed" }
        );
    }
    assert!(matched > 0, "at least one hurricane must be detected");
    println!(
        "\n{matched}/{} hurricanes recovered purely from box-plot outliers of",
        collection.events.of_kind(EventKind::Hurricane).count()
    );
    println!("the salient-minima/maxima distribution — no manual thresholds.");
}
