//! Surrogate for the synoptic weather dataset (SEP83L.DAT, Hahn et al. 1994).
//!
//! The paper's real-data experiments use 1,002,752 cloud reports with 8
//! selected dimensions. That file cannot be bundled here, so this module
//! generates a surrogate with the **same schema, the paper's reported
//! cardinalities, and the dependence structure the paper itself highlights**
//! (Section 5.3: "in weather data, when a certain weather condition appears
//! at the same time of the day, there is always a unique value for solar
//! altitude"):
//!
//! | # | dimension                  | cardinality | generation |
//! |---|----------------------------|-------------|------------|
//! | 0 | year-month-day-hour        | 238         | uniform over observation slots |
//! | 1 | latitude                   | 5260        | determined by station (+ small jitter over shared grid cells) |
//! | 2 | longitude                  | 6187        | determined by station |
//! | 3 | station number             | 6515        | Zipf 1.1 (busy stations report more) |
//! | 4 | present weather            | 100         | Zipf 1.0, correlated with station band |
//! | 5 | change code                | 110         | correlated with present weather |
//! | 6 | solar altitude             | 1535        | deterministic function of (hour band, latitude band) |
//! | 7 | relative lunar illuminance | 155         | deterministic function of date slot |
//!
//! The functional dependences `station → (lat, lon)`, `(time, lat) → solar`,
//! `date → lunar` are what give the real dataset its high closed-pruning
//! yield; the surrogate reproduces them so Figs 7, 11, 16, 17 exercise the
//! same algorithmic regimes.

use crate::zipf::Zipf;
use ccube_core::{Table, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cardinalities reported in Section 5 of the paper, in dimension order.
pub const WEATHER_CARDS: [u32; 8] = [238, 5260, 6187, 6515, 100, 110, 1535, 155];

/// Dimension names of the weather schema.
pub const WEATHER_NAMES: [&str; 8] = [
    "time",
    "latitude",
    "longitude",
    "station",
    "weather",
    "change_code",
    "solar_alt",
    "lunar",
];

/// Parameters for the weather surrogate.
#[derive(Clone, Debug)]
pub struct WeatherSpec {
    /// Number of reports to generate (paper: 1,002,752).
    pub tuples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl WeatherSpec {
    /// Surrogate with `tuples` rows.
    pub fn new(tuples: usize, seed: u64) -> WeatherSpec {
        WeatherSpec { tuples, seed }
    }

    /// Generate the 8-dimension table.
    pub fn generate(&self) -> Table {
        let cards = WEATHER_CARDS;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let station_z = Zipf::new(cards[3], 1.1);
        let weather_z = Zipf::new(cards[4], 1.0);
        let time_z = Zipf::new(cards[0], 0.2); // seasons are mildly non-uniform

        // Fixed station geography: each station sits at one (lat, lon).
        // Latitude grid is coarser than the station list, so stations share
        // latitude values (card 5260 < 6515), as in the real data.
        let stations: Vec<(u32, u32)> = (0..cards[3])
            .map(|s| {
                let lat = (s.wrapping_mul(2654435761) >> 7) % cards[1];
                let lon = (s.wrapping_mul(2246822519) >> 5) % cards[2];
                (lat, lon)
            })
            .collect();

        let mut builder = TableBuilder::new(8)
            .cards(cards.to_vec())
            .names(WEATHER_NAMES.to_vec());
        let mut row = [0u32; 8];
        for _ in 0..self.tuples {
            let time = time_z.sample(&mut rng);
            let station = station_z.sample(&mut rng);
            let (lat, lon) = stations[station as usize];
            let weather = {
                // Weather bands correlate with latitude band; adding the band
                // keeps skew but shifts the hot values regionally.
                let base = weather_z.sample(&mut rng);
                (base + (lat / 1000)) % cards[4]
            };
            let change = {
                // Change code strongly follows present weather.
                let noise = rng.gen_range(0u32..4);
                (weather + noise) % cards[5]
            };
            // Solar altitude: deterministic in (hour band, latitude band)
            // with slight instrument jitter on a 1535-value scale.
            let hour_band = time % 8; // 3-hourly synoptic slots
            let lat_band = lat / 40;
            let solar = (hour_band * 191 + lat_band + rng.gen_range(0u32..2)) % cards[6];
            // Lunar illuminance: function of the date slot alone.
            let lunar = (time * 13 / 2) % cards[7];
            row = [time, lat, lon, station, weather, change, solar, lunar];
            builder.push_row(&row);
        }
        let _ = row;
        builder.build().expect("weather surrogate is valid")
    }

    /// Generate and keep only the first `k` dimensions (the Fig 7 sweep
    /// "selecting the first 5 to 8 dimensions"), re-encoded densely.
    pub fn generate_dims(&self, k: usize) -> Table {
        self.generate().truncate_dims(k).compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_paper() {
        let t = WeatherSpec::new(2000, 1).generate();
        assert_eq!(t.dims(), 8);
        assert_eq!(t.cards(), &WEATHER_CARDS);
        assert_eq!(t.dim_name(6), "solar_alt");
        assert_eq!(t.rows(), 2000);
    }

    #[test]
    fn station_determines_position() {
        let t = WeatherSpec::new(5000, 2).generate();
        use std::collections::HashMap;
        let mut pos: HashMap<u32, (u32, u32)> = HashMap::new();
        for (_, row) in t.iter_rows() {
            let e = pos.entry(row[3]).or_insert((row[1], row[2]));
            assert_eq!(
                *e,
                (row[1], row[2]),
                "station -> (lat, lon) must be functional"
            );
        }
    }

    #[test]
    fn lunar_determined_by_time() {
        let t = WeatherSpec::new(5000, 3).generate();
        use std::collections::HashMap;
        let mut map: HashMap<u32, u32> = HashMap::new();
        for (_, row) in t.iter_rows() {
            let e = map.entry(row[0]).or_insert(row[7]);
            assert_eq!(*e, row[7], "time -> lunar must be functional");
        }
    }

    #[test]
    fn stations_are_skewed() {
        let t = WeatherSpec::new(20_000, 4).generate();
        let f = t.freq(3);
        let max = *f.iter().max().unwrap() as f64;
        let nonzero = f.iter().filter(|&&x| x > 0).count() as f64;
        let avg = 20_000.0 / nonzero;
        assert!(
            max > 5.0 * avg,
            "busiest station should dominate: {max} vs {avg}"
        );
    }

    #[test]
    fn truncation_compacts() {
        let t = WeatherSpec::new(1000, 5).generate_dims(5);
        assert_eq!(t.dims(), 5);
        for d in 0..5 {
            // Compact: no value code exceeds observed distinct count.
            let distinct = t.freq(d).iter().filter(|&&f| f > 0).count() as u32;
            assert_eq!(t.card(d), distinct.max(1));
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            WeatherSpec::new(500, 9).generate(),
            WeatherSpec::new(500, 9).generate()
        );
    }
}
