//! Embedded world-city database.
//!
//! The topology generator places AS points-of-presence, colocation
//! facilities, RIPE Atlas probes, PlanetLab sites and Looking Glasses at
//! cities drawn from this table. It covers ~190 cities in ~95 countries on
//! all six continents, with the major Internet-hub metros (the ones
//! hosting the paper's Table-1 facilities: London, Amsterdam, Frankfurt,
//! New York, Atlanta, Hamburg, Brussels, ...) flagged as hubs.
//!
//! Coordinates are approximate city centers; population weights are rough
//! metro populations in millions and only used for weighted sampling.

use crate::coord::GeoPoint;
use crate::country::{Continent, CountryCode};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Index of a city inside a [`CityDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CityId(pub u32);

/// A city record.
#[derive(Debug, Clone)]
pub struct City {
    /// Identifier within the owning [`CityDb`].
    pub id: CityId,
    /// City name (unique within the database).
    pub name: &'static str,
    /// Country the city belongs to.
    pub country: CountryCode,
    /// Continent the city belongs to.
    pub continent: Continent,
    /// Location of the city center.
    pub location: GeoPoint,
    /// Approximate metro population, millions (sampling weight).
    pub population_m: f64,
    /// Whether the city is a major Internet interconnection hub.
    pub is_hub: bool,
}

/// Row format of the static table below.
type Row = (&'static str, &'static str, Continent, f64, f64, f64, bool);

use Continent::{Africa, Asia, Europe, NorthAmerica, Oceania, SouthAmerica};

/// The embedded city table: (name, country, continent, lat, lon, pop_m, hub).
#[rustfmt::skip]
static CITY_TABLE: &[Row] = &[
    // --- Europe ------------------------------------------------------
    ("London",        "GB", Europe, 51.5074,  -0.1278, 14.3, true),
    ("Manchester",    "GB", Europe, 53.4808,  -2.2426,  2.8, false),
    ("Amsterdam",     "NL", Europe, 52.3676,   4.9041,  2.5, true),
    ("Rotterdam",     "NL", Europe, 51.9244,   4.4777,  1.0, false),
    ("Frankfurt",     "DE", Europe, 50.1109,   8.6821,  2.3, true),
    ("Berlin",        "DE", Europe, 52.5200,  13.4050,  3.7, false),
    ("Hamburg",       "DE", Europe, 53.5511,   9.9937,  1.8, true),
    ("Munich",        "DE", Europe, 48.1351,  11.5820,  1.5, false),
    ("Duesseldorf",   "DE", Europe, 51.2277,   6.7735,  0.6, false),
    ("Paris",         "FR", Europe, 48.8566,   2.3522, 11.0, true),
    ("Marseille",     "FR", Europe, 43.2965,   5.3698,  1.6, true),
    ("Lyon",          "FR", Europe, 45.7640,   4.8357,  1.4, false),
    ("Brussels",      "BE", Europe, 50.8503,   4.3517,  1.2, true),
    ("Vienna",        "AT", Europe, 48.2082,  16.3738,  1.9, true),
    ("Zurich",        "CH", Europe, 47.3769,   8.5417,  1.4, true),
    ("Geneva",        "CH", Europe, 46.2044,   6.1432,  0.6, false),
    ("Milan",         "IT", Europe, 45.4642,   9.1900,  3.1, true),
    ("Rome",          "IT", Europe, 41.9028,  12.4964,  4.3, false),
    ("Madrid",        "ES", Europe, 40.4168,  -3.7038,  6.6, true),
    ("Barcelona",     "ES", Europe, 41.3874,   2.1686,  5.6, false),
    ("Lisbon",        "PT", Europe, 38.7223,  -9.1393,  2.9, false),
    ("Dublin",        "IE", Europe, 53.3498,  -6.2603,  1.4, true),
    ("Copenhagen",    "DK", Europe, 55.6761,  12.5683,  1.3, true),
    ("Stockholm",     "SE", Europe, 59.3293,  18.0686,  1.6, true),
    ("Oslo",          "NO", Europe, 59.9139,  10.7522,  1.0, false),
    ("Helsinki",      "FI", Europe, 60.1699,  24.9384,  1.3, false),
    ("Warsaw",        "PL", Europe, 52.2297,  21.0122,  1.8, true),
    ("Prague",        "CZ", Europe, 50.0755,  14.4378,  1.3, true),
    ("Bratislava",    "SK", Europe, 48.1486,  17.1077,  0.4, false),
    ("Budapest",      "HU", Europe, 47.4979,  19.0402,  1.8, false),
    ("Bucharest",     "RO", Europe, 44.4268,  26.1025,  1.8, false),
    ("Sofia",         "BG", Europe, 42.6977,  23.3219,  1.2, false),
    ("Athens",        "GR", Europe, 37.9838,  23.7275,  3.2, false),
    ("Belgrade",      "RS", Europe, 44.7866,  20.4489,  1.4, false),
    ("Zagreb",        "HR", Europe, 45.8150,  15.9819,  0.8, false),
    ("Ljubljana",     "SI", Europe, 46.0569,  14.5058,  0.3, false),
    ("Kyiv",          "UA", Europe, 50.4501,  30.5234,  3.0, false),
    ("Moscow",        "RU", Europe, 55.7558,  37.6173, 12.5, true),
    ("SaintPetersburg","RU", Europe, 59.9311, 30.3609,  5.4, false),
    ("Istanbul",      "TR", Europe, 41.0082,  28.9784, 15.5, false),
    ("Riga",          "LV", Europe, 56.9496,  24.1052,  0.6, false),
    ("Vilnius",       "LT", Europe, 54.6872,  25.2797,  0.5, false),
    ("Tallinn",       "EE", Europe, 59.4370,  24.7536,  0.4, false),
    ("Reykjavik",     "IS", Europe, 64.1466, -21.9426,  0.2, false),
    ("Luxembourg",    "LU", Europe, 49.6116,   6.1319,  0.1, false),
    ("Nicosia",       "CY", Europe, 35.1856,  33.3823,  0.3, false),
    ("Valletta",      "MT", Europe, 35.8989,  14.5146,  0.2, false),
    ("Chisinau",      "MD", Europe, 47.0105,  28.8638,  0.7, false),
    ("Minsk",         "BY", Europe, 53.9006,  27.5590,  2.0, false),
    ("Sarajevo",      "BA", Europe, 43.8563,  18.4131,  0.4, false),
    ("Skopje",        "MK", Europe, 41.9973,  21.4280,  0.5, false),
    ("Tirana",        "AL", Europe, 41.3275,  19.8187,  0.5, false),

    // --- North America -----------------------------------------------
    ("NewYork",       "US", NorthAmerica, 40.7128,  -74.0060, 19.8, true),
    ("Ashburn",       "US", NorthAmerica, 39.0438,  -77.4874,  0.4, true),
    ("Atlanta",       "US", NorthAmerica, 33.7490,  -84.3880,  6.1, true),
    ("Miami",         "US", NorthAmerica, 25.7617,  -80.1918,  6.2, true),
    ("Chicago",       "US", NorthAmerica, 41.8781,  -87.6298,  9.5, true),
    ("Dallas",        "US", NorthAmerica, 32.7767,  -96.7970,  7.6, true),
    ("LosAngeles",    "US", NorthAmerica, 34.0522, -118.2437, 13.2, true),
    ("SanJose",       "US", NorthAmerica, 37.3382, -121.8863,  2.0, true),
    ("Seattle",       "US", NorthAmerica, 47.6062, -122.3321,  4.0, true),
    ("Denver",        "US", NorthAmerica, 39.7392, -104.9903,  2.9, false),
    ("Houston",       "US", NorthAmerica, 29.7604,  -95.3698,  7.1, false),
    ("Boston",        "US", NorthAmerica, 42.3601,  -71.0589,  4.9, false),
    ("Phoenix",       "US", NorthAmerica, 33.4484, -112.0740,  4.9, false),
    ("Minneapolis",   "US", NorthAmerica, 44.9778,  -93.2650,  3.7, false),
    ("Toronto",       "CA", NorthAmerica, 43.6532,  -79.3832,  6.2, true),
    ("Montreal",      "CA", NorthAmerica, 45.5017,  -73.5673,  4.2, false),
    ("Vancouver",     "CA", NorthAmerica, 49.2827, -123.1207,  2.6, false),
    ("MexicoCity",    "MX", NorthAmerica, 19.4326,  -99.1332, 21.8, false),
    ("Guadalajara",   "MX", NorthAmerica, 20.6597, -103.3496,  5.3, false),
    ("GuatemalaCity", "GT", NorthAmerica, 14.6349,  -90.5069,  3.0, false),
    ("SanSalvador",   "SV", NorthAmerica, 13.6929,  -89.2182,  1.1, false),
    ("Tegucigalpa",   "HN", NorthAmerica, 14.0723,  -87.1921,  1.2, false),
    ("Managua",       "NI", NorthAmerica, 12.1150,  -86.2362,  1.1, false),
    ("SanJoseCR",     "CR", NorthAmerica,  9.9281,  -84.0907,  1.4, false),
    ("PanamaCity",    "PA", NorthAmerica,  8.9824,  -79.5199,  1.9, false),
    ("Havana",        "CU", NorthAmerica, 23.1136,  -82.3666,  2.1, false),
    ("SantoDomingo",  "DO", NorthAmerica, 18.4861,  -69.9312,  3.3, false),
    ("Kingston",      "JM", NorthAmerica, 17.9712,  -76.7936,  1.2, false),
    ("PortOfSpain",   "TT", NorthAmerica, 10.6596,  -61.5019,  0.5, false),

    // --- South America -----------------------------------------------
    ("SaoPaulo",      "BR", SouthAmerica, -23.5505, -46.6333, 22.0, true),
    ("RioDeJaneiro",  "BR", SouthAmerica, -22.9068, -43.1729, 13.5, false),
    ("Fortaleza",     "BR", SouthAmerica,  -3.7319, -38.5267,  4.1, true),
    ("BuenosAires",   "AR", SouthAmerica, -34.6037, -58.3816, 15.2, false),
    ("Santiago",      "CL", SouthAmerica, -33.4489, -70.6693,  6.8, false),
    ("Bogota",        "CO", SouthAmerica,   4.7110, -74.0721, 10.9, false),
    ("Medellin",      "CO", SouthAmerica,   6.2442, -75.5812,  4.0, false),
    ("Lima",          "PE", SouthAmerica, -12.0464, -77.0428, 10.7, false),
    ("Quito",         "EC", SouthAmerica,  -0.1807, -78.4678,  2.0, false),
    ("Caracas",       "VE", SouthAmerica,  10.4806, -66.9036,  2.9, false),
    ("Montevideo",    "UY", SouthAmerica, -34.9011, -56.1645,  1.8, false),
    ("Asuncion",      "PY", SouthAmerica, -25.2637, -57.5759,  2.3, false),
    ("LaPaz",         "BO", SouthAmerica, -16.4897, -68.1193,  1.9, false),
    ("Georgetown",    "GY", SouthAmerica,   6.8013, -58.1551,  0.2, false),

    // --- Asia ---------------------------------------------------------
    ("Tokyo",         "JP", Asia, 35.6762, 139.6503, 37.4, true),
    ("Osaka",         "JP", Asia, 34.6937, 135.5023, 19.2, false),
    ("Seoul",         "KR", Asia, 37.5665, 126.9780, 25.6, true),
    ("Beijing",       "CN", Asia, 39.9042, 116.4074, 20.9, false),
    ("Shanghai",      "CN", Asia, 31.2304, 121.4737, 27.1, false),
    ("Guangzhou",     "CN", Asia, 23.1291, 113.2644, 18.7, false),
    ("HongKong",      "HK", Asia, 22.3193, 114.1694,  7.5, true),
    ("Taipei",        "TW", Asia, 25.0330, 121.5654,  7.0, false),
    ("Singapore",     "SG", Asia,  1.3521, 103.8198,  5.9, true),
    ("KualaLumpur",   "MY", Asia,  3.1390, 101.6869,  8.0, false),
    ("Jakarta",       "ID", Asia, -6.2088, 106.8456, 34.5, false),
    ("Bangkok",       "TH", Asia, 13.7563, 100.5018, 10.7, false),
    ("Manila",        "PH", Asia, 14.5995, 120.9842, 13.9, false),
    ("Hanoi",         "VN", Asia, 21.0285, 105.8542,  8.1, false),
    ("HoChiMinh",     "VN", Asia, 10.8231, 106.6297,  9.3, false),
    ("PhnomPenh",     "KH", Asia, 11.5564, 104.9282,  2.1, false),
    ("Yangon",        "MM", Asia, 16.8661,  96.1951,  5.4, false),
    ("Dhaka",         "BD", Asia, 23.8103,  90.4125, 21.7, false),
    ("Mumbai",        "IN", Asia, 19.0760,  72.8777, 20.7, true),
    ("Delhi",         "IN", Asia, 28.7041,  77.1025, 31.2, false),
    ("Bangalore",     "IN", Asia, 12.9716,  77.5946, 12.8, false),
    ("Chennai",       "IN", Asia, 13.0827,  80.2707, 11.2, true),
    ("Karachi",       "PK", Asia, 24.8607,  67.0011, 16.5, false),
    ("Lahore",        "PK", Asia, 31.5497,  74.3436, 12.6, false),
    ("Colombo",       "LK", Asia,  6.9271,  79.8612,  2.3, false),
    ("Kathmandu",     "NP", Asia, 27.7172,  85.3240,  1.5, false),
    ("Kabul",         "AF", Asia, 34.5553,  69.2075,  4.4, false),
    ("Tehran",        "IR", Asia, 35.6892,  51.3890,  9.1, false),
    ("Baghdad",       "IQ", Asia, 33.3152,  44.3661,  7.5, false),
    ("Riyadh",        "SA", Asia, 24.7136,  46.6753,  7.7, false),
    ("Jeddah",        "SA", Asia, 21.4858,  39.1925,  4.7, false),
    ("Dubai",         "AE", Asia, 25.2048,  55.2708,  3.5, true),
    ("Doha",          "QA", Asia, 25.2854,  51.5310,  2.4, false),
    ("KuwaitCity",    "KW", Asia, 29.3759,  47.9774,  3.1, false),
    ("Manama",        "BH", Asia, 26.2285,  50.5860,  0.7, false),
    ("Muscat",        "OM", Asia, 23.5880,  58.3829,  1.6, false),
    ("Amman",         "JO", Asia, 31.9454,  35.9284,  2.1, false),
    ("Beirut",        "LB", Asia, 33.8938,  35.5018,  2.4, false),
    ("TelAviv",       "IL", Asia, 32.0853,  34.7818,  4.2, false),
    ("Ankara",        "TR", Asia, 39.9334,  32.8597,  5.7, false),
    ("Baku",          "AZ", Asia, 40.4093,  49.8671,  2.3, false),
    ("Tbilisi",       "GE", Asia, 41.7151,  44.8271,  1.2, false),
    ("Yerevan",       "AM", Asia, 40.1792,  44.4991,  1.1, false),
    ("Almaty",        "KZ", Asia, 43.2220,  76.8512,  1.9, false),
    ("Tashkent",      "UZ", Asia, 41.2995,  69.2401,  2.6, false),
    ("Bishkek",       "KG", Asia, 42.8746,  74.5698,  1.1, false),
    ("UlaanBaatar",   "MN", Asia, 47.8864, 106.9057,  1.5, false),
    ("Novosibirsk",   "RU", Asia, 55.0084,  82.9357,  1.6, false),

    // --- Oceania ------------------------------------------------------
    ("Sydney",        "AU", Oceania, -33.8688, 151.2093,  5.3, true),
    ("Melbourne",     "AU", Oceania, -37.8136, 144.9631,  5.1, false),
    ("Brisbane",      "AU", Oceania, -27.4698, 153.0251,  2.5, false),
    ("Perth",         "AU", Oceania, -31.9505, 115.8605,  2.1, false),
    ("Auckland",      "NZ", Oceania, -36.8485, 174.7633,  1.7, false),
    ("Wellington",    "NZ", Oceania, -41.2865, 174.7762,  0.4, false),
    ("Suva",          "FJ", Oceania, -18.1248, 178.4501,  0.2, false),
    ("PortMoresby",   "PG", Oceania,  -9.4438, 147.1803,  0.4, false),

    // --- Africa -------------------------------------------------------
    ("Johannesburg",  "ZA", Africa, -26.2041,  28.0473,  5.8, true),
    ("CapeTown",      "ZA", Africa, -33.9249,  18.4241,  4.6, false),
    ("Cairo",         "EG", Africa,  30.0444,  31.2357, 20.9, false),
    ("Alexandria",    "EG", Africa,  31.2001,  29.9187,  5.2, false),
    ("Lagos",         "NG", Africa,   6.5244,   3.3792, 14.8, false),
    ("Abuja",         "NG", Africa,   9.0765,   7.3986,  3.6, false),
    ("Nairobi",       "KE", Africa,  -1.2921,  36.8219,  4.7, false),
    ("Mombasa",       "KE", Africa,  -4.0435,  39.6682,  1.2, false),
    ("Accra",         "GH", Africa,   5.6037,  -0.1870,  2.5, false),
    ("Abidjan",       "CI", Africa,   5.3600,  -4.0083,  5.3, false),
    ("Dakar",         "SN", Africa,  14.7167, -17.4677,  3.1, false),
    ("Casablanca",    "MA", Africa,  33.5731,  -7.5898,  3.7, false),
    ("Tunis",         "TN", Africa,  36.8065,  10.1815,  2.4, false),
    ("Algiers",       "DZ", Africa,  36.7538,   3.0588,  2.9, false),
    ("Tripoli",       "LY", Africa,  32.8872,  13.1913,  1.2, false),
    ("Khartoum",      "SD", Africa,  15.5007,  32.5599,  5.8, false),
    ("AddisAbaba",    "ET", Africa,   9.0300,  38.7400,  5.0, false),
    ("Kampala",       "UG", Africa,   0.3476,  32.5825,  3.5, false),
    ("DarEsSalaam",   "TZ", Africa,  -6.7924,  39.2083,  7.0, false),
    ("Kigali",        "RW", Africa,  -1.9441,  30.0619,  1.2, false),
    ("Lusaka",        "ZM", Africa, -15.3875,  28.3228,  2.9, false),
    ("Harare",        "ZW", Africa, -17.8252,  31.0335,  1.5, false),
    ("Gaborone",      "BW", Africa, -24.6282,  25.9231,  0.3, false),
    ("Windhoek",      "NA", Africa, -22.5594,  17.0832,  0.4, false),
    ("Maputo",        "MZ", Africa, -25.9692,  32.5732,  1.1, false),
    ("Antananarivo",  "MG", Africa, -18.8792,  47.5079,  3.4, false),
    ("PortLouis",     "MU", Africa, -20.1609,  57.5012,  0.1, false),
    ("Kinshasa",      "CD", Africa,  -4.4419,  15.2663, 14.3, false),
    ("Luanda",        "AO", Africa,  -8.8390,  13.2894,  8.3, false),
    ("Douala",        "CM", Africa,   4.0511,   9.7679,  3.8, false),
];

/// The city database: an immutable, indexed view over [`CITY_TABLE`].
#[derive(Debug, Clone)]
pub struct CityDb {
    cities: Vec<City>,
    by_name: HashMap<&'static str, CityId>,
    by_country: HashMap<CountryCode, Vec<CityId>>,
    /// Row-major `len × len` great-circle table behind [`CityDb::km`],
    /// filled on first use.
    km: OnceLock<Box<[f64]>>,
}

impl CityDb {
    /// Builds the database from the embedded table.
    ///
    /// Panics if the embedded table is internally inconsistent (duplicate
    /// names or invalid coordinates) — that is a compile-time data bug,
    /// caught by the test suite.
    pub fn embedded() -> Self {
        let mut cities = Vec::with_capacity(CITY_TABLE.len());
        let mut by_name = HashMap::new();
        let mut by_country: HashMap<CountryCode, Vec<CityId>> = HashMap::new();
        for (i, &(name, cc, continent, lat, lon, pop, hub)) in CITY_TABLE.iter().enumerate() {
            let id = CityId(i as u32);
            let country = CountryCode::new(cc).expect("embedded country code invalid");
            let location = GeoPoint::new(lat, lon).expect("embedded coordinates invalid");
            let prev = by_name.insert(name, id);
            assert!(prev.is_none(), "duplicate embedded city name: {name}");
            by_country.entry(country).or_default().push(id);
            cities.push(City {
                id,
                name,
                country,
                continent,
                location,
                population_m: pop,
                is_hub: hub,
            });
        }
        CityDb {
            cities,
            by_name,
            by_country,
            km: OnceLock::new(),
        }
    }

    /// Number of cities.
    pub fn len(&self) -> usize {
        self.cities.len()
    }

    /// Whether the database is empty (never true for [`CityDb::embedded`]).
    pub fn is_empty(&self) -> bool {
        self.cities.is_empty()
    }

    /// Looks up a city by id.
    pub fn get(&self, id: CityId) -> &City {
        &self.cities[id.0 as usize]
    }

    /// Great-circle distance between two city centres, in km.
    ///
    /// A load from a dense table built on the first call; every ordered
    /// entry is `a.location.distance_km(&b.location)`, so the result is
    /// bit-equal to the call it replaces.
    #[inline]
    pub fn km(&self, a: CityId, b: CityId) -> f64 {
        let table = self.km.get_or_init(|| {
            self.cities
                .iter()
                .flat_map(|a| {
                    self.cities
                        .iter()
                        .map(|b| a.location.distance_km(&b.location))
                })
                .collect()
        });
        table[a.0 as usize * self.cities.len() + b.0 as usize]
    }

    /// Looks up a city by its unique name.
    pub fn by_name(&self, name: &str) -> Option<&City> {
        self.by_name.get(name).map(|&id| self.get(id))
    }

    /// All cities, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &City> {
        self.cities.iter()
    }

    /// Cities in a given country, in id order.
    pub fn in_country(&self, country: CountryCode) -> &[CityId] {
        self.by_country
            .get(&country)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// All distinct country codes, sorted.
    pub fn countries(&self) -> Vec<CountryCode> {
        let mut v: Vec<_> = self.by_country.keys().copied().collect();
        v.sort();
        v
    }

    /// All hub cities, in id order.
    pub fn hubs(&self) -> Vec<CityId> {
        self.cities
            .iter()
            .filter(|c| c.is_hub)
            .map(|c| c.id)
            .collect()
    }

    /// The city nearest to `point` (by great-circle distance).
    pub fn nearest(&self, point: &GeoPoint) -> &City {
        self.cities
            .iter()
            .min_by(|a, b| {
                a.location
                    .distance_km(point)
                    .partial_cmp(&b.location.distance_km(point))
                    .expect("distances are finite")
            })
            .expect("embedded database is non-empty")
    }

    /// Samples a city id weighted by metro population.
    pub fn sample_weighted<R: rand::Rng>(&self, rng: &mut R) -> CityId {
        let total: f64 = self.cities.iter().map(|c| c.population_m).sum();
        let mut x = rng.gen_range(0.0..total);
        for c in &self.cities {
            if x < c.population_m {
                return c.id;
            }
            x -= c.population_m;
        }
        // Floating-point slack: fall back to the last city.
        self.cities.last().expect("non-empty").id
    }
}

impl Default for CityDb {
    fn default() -> Self {
        CityDb::embedded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn embedded_db_is_well_formed() {
        let db = CityDb::embedded();
        assert!(db.len() >= 150, "expected >=150 cities, got {}", db.len());
        assert!(!db.is_empty());
    }

    #[test]
    fn covers_many_countries_and_all_continents() {
        let db = CityDb::embedded();
        let countries = db.countries();
        assert!(
            countries.len() >= 90,
            "expected >=90 countries, got {}",
            countries.len()
        );
        use std::collections::HashSet;
        let continents: HashSet<_> = db.iter().map(|c| c.continent).collect();
        assert_eq!(continents.len(), 6);
    }

    #[test]
    fn table1_hub_cities_are_present_and_hubs() {
        let db = CityDb::embedded();
        for name in [
            "London",
            "Amsterdam",
            "Frankfurt",
            "Hamburg",
            "Brussels",
            "Atlanta",
            "NewYork",
        ] {
            let c = db.by_name(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(c.is_hub, "{name} should be a hub");
        }
    }

    #[test]
    fn lookup_by_name_and_id_agree() {
        let db = CityDb::embedded();
        let c = db.by_name("Tokyo").unwrap();
        assert_eq!(db.get(c.id).name, "Tokyo");
        assert!(db.by_name("Atlantis").is_none());
    }

    #[test]
    fn in_country_contains_expected_cities() {
        let db = CityDb::embedded();
        let de = CountryCode::new("DE").unwrap();
        let names: Vec<_> = db.in_country(de).iter().map(|&i| db.get(i).name).collect();
        assert!(names.contains(&"Frankfurt"));
        assert!(names.contains(&"Hamburg"));
        let zz = CountryCode::new("ZZ").unwrap();
        assert!(db.in_country(zz).is_empty());
    }

    #[test]
    fn nearest_finds_exact_city() {
        let db = CityDb::embedded();
        let tokyo = db.by_name("Tokyo").unwrap();
        assert_eq!(db.nearest(&tokyo.location).name, "Tokyo");
    }

    #[test]
    fn nearest_finds_close_city() {
        let db = CityDb::embedded();
        // A point slightly off London should resolve to London.
        let p = GeoPoint::new(51.6, -0.2).unwrap();
        assert_eq!(db.nearest(&p).name, "London");
    }

    #[test]
    fn weighted_sampling_prefers_big_cities() {
        let db = CityDb::embedded();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut tokyo = 0usize;
        let mut valletta = 0usize;
        for _ in 0..5000 {
            let c = db.get(db.sample_weighted(&mut rng));
            match c.name {
                "Tokyo" => tokyo += 1,
                "Valletta" => valletta += 1,
                _ => {}
            }
        }
        assert!(tokyo > valletta, "tokyo={tokyo} valletta={valletta}");
    }

    #[test]
    fn hubs_are_a_strict_subset() {
        let db = CityDb::embedded();
        let hubs = db.hubs();
        assert!(!hubs.is_empty());
        assert!(hubs.len() < db.len());
        for id in hubs {
            assert!(db.get(id).is_hub);
        }
    }

    #[test]
    fn km_table_is_bit_equal_to_haversine_for_every_ordered_pair() {
        let db = CityDb::embedded();
        // One clone taken before the table exists, one after.
        let cold = db.clone();
        db.km(CityId(0), CityId(0));
        let warm = db.clone();
        for a in db.iter() {
            for b in db.iter() {
                let direct = a.location.distance_km(&b.location).to_bits();
                for copy in [&db, &cold, &warm] {
                    assert_eq!(
                        copy.km(a.id, b.id).to_bits(),
                        direct,
                        "{} -> {}",
                        a.name,
                        b.name
                    );
                }
            }
        }
    }

    #[test]
    fn all_city_names_are_unique() {
        use std::collections::HashSet;
        let db = CityDb::embedded();
        let names: HashSet<_> = db.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), db.len());
    }
}
