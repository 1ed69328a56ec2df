#include "sp2b.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace perfbench {

using scisparql::QueryOutcome;
using scisparql::Term;

namespace {

const char* kGiven[] = {"Paul",  "Anna",   "Jon",   "Maria", "Li",
                        "Omar",  "Ines",   "Kurt",  "Sara",  "Ivan",
                        "Chen",  "Ada",    "Raj",   "Elena", "Tom",
                        "Yuki",  "Pedro",  "Nora",  "Hugo",  "Mia"};
const char* kSurname[] = {
    "Smith",  "Novak",   "Garcia", "Kim",    "Muller", "Rossi",  "Tanaka",
    "Larsen", "Dubois",  "Silva",  "Kowal",  "Ahmed",  "Berg",   "Costa",
    "Fischer", "Ivanov", "Jensen", "Khan",   "Lopez",  "Moreau", "Nagy",
    "Olsen",  "Petrov",  "Quinn",  "Reyes",  "Sato",   "Torres", "Urban",
    "Vargas", "Weber",   "Xu",     "Young",  "Zhang",  "Abe",    "Brandt",
    "Cruz",   "Diaz",    "Ek",     "Falk",   "Gray"};

const std::string kRdfType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
const std::string kFoafName = "http://xmlns.com/foaf/0.1/name";
const std::string kDcCreator = "http://purl.org/dc/elements/1.1/creator";

std::string DocTitle(int d) { return "Publication " + std::to_string(d); }

std::string VenueTitle(const Sp2bModel::Venue& v) {
  return (v.journal ? "Journal " : "Proceedings ") + std::to_string(v.number) +
         " (" + std::to_string(v.year) + ")";
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

/// Number of authors of a paper: 1..6, mode 2.
int AuthorCount(Rng& rng) {
  static const double kCum[] = {0.22, 0.55, 0.79, 0.91, 0.97, 1.0};
  double u = rng.Uniform();
  for (int k = 0; k < 6; ++k) {
    if (u < kCum[k]) return k + 1;
  }
  return 6;
}

std::string Row(std::initializer_list<std::string> cells) {
  std::string out;
  bool first = true;
  for (const std::string& c : cells) {
    if (!first) out += '\t';
    out += c;
    first = false;
  }
  return out;
}

std::vector<int> Coauthors(const Sp2bModel& m, int p) {
  std::set<int> out;
  for (int d : m.docs_of_person[p]) {
    for (int a : m.docs[d].authors) {
      if (a != p) out.insert(a);
    }
  }
  return {out.begin(), out.end()};
}

/// Persons of the Q5b answer for year `y`: authors of an article issued in
/// `y` who also authored an inproceedings.
std::set<int> Q5bPersons(const Sp2bModel& m, int y) {
  std::set<int> out;
  for (int d : m.docs_of_year[y - m.config.first_year]) {
    if (!m.docs[d].article) continue;
    for (int a : m.docs[d].authors) {
      for (int d2 : m.docs_of_person[a]) {
        if (!m.docs[d2].article) {
          out.insert(a);
          break;
        }
      }
    }
  }
  return out;
}

/// Element floor(u * n) of a domain of size n, u in [0, 1).
int Pick(size_t n, double u) {
  return static_cast<int>(std::min(n - 1, static_cast<size_t>(u * static_cast<double>(n))));
}

int Year(const Sp2bModel& m, double u, int skip_first) {
  return m.config.first_year + skip_first + Pick(m.config.years - skip_first, u);
}

/// A person with at least one document; u runs from the least to the most
/// prolific.
int ActivePerson(const Sp2bModel& m, double u) {
  return m.active_persons[Pick(m.active_persons.size(), u)];
}

int VenueOfKind(const Sp2bModel& m, double u, bool journal) {
  const std::vector<int>& v = journal ? m.journals : m.proceedings;
  return v[Pick(v.size(), u)];
}

}  // namespace

std::string DocIri(int d) { return "http://localhost/publications/d" + std::to_string(d); }
std::string PersonIri(int p) { return "http://localhost/persons/p" + std::to_string(p); }

const std::string& Prolog() {
  static const std::string kProlog =
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
      "PREFIX dc: <http://purl.org/dc/elements/1.1/>\n"
      "PREFIX dcterms: <http://purl.org/dc/terms/>\n"
      "PREFIX swrc: <http://swrc.ontoware.org/ontology#>\n"
      "PREFIX bench: <http://localhost/vocabulary/bench/>\n"
      "PREFIX pub: <http://localhost/publications/>\n"
      "PREFIX per: <http://localhost/persons/>\n"
      "PREFIX ven: <http://localhost/venues/>\n";
  return kProlog;
}

Sp2bModel GenerateSp2b(const Sp2bConfig& config, uint64_t seed) {
  Sp2bModel m;
  m.config = config;
  Rng rng(seed);

  // Documents per year follow a logistic growth curve (the DBLP shape the
  // SP²Bench paper fits); the counts are fixed by the configuration so every
  // seed yields a graph of the same size.
  std::vector<double> w(config.years);
  double wsum = 0;
  for (int i = 0; i < config.years; ++i) {
    w[i] = 0.05 + 1.0 / (1.0 + std::exp(-0.25 * (i - config.years * 0.6)));
    wsum += w[i];
  }
  std::vector<int> per_year(config.years);
  int assigned = 0;
  for (int i = 0; i < config.years; ++i) {
    per_year[i] = static_cast<int>(config.docs * w[i] / wsum);
    assigned += per_year[i];
  }
  per_year[config.years - 1] += config.docs - assigned;

  m.names.resize(config.persons);
  for (int p = 0; p < config.persons; ++p) {
    m.names[p] = std::string(kGiven[p % 20]) + " " + kSurname[(p / 20) % 40];
    if (p >= 800) m.names[p] += " " + std::to_string(p / 800);
  }
  m.names[0] = "Paul Erdoes";

  m.docs_of_person.resize(config.persons);
  m.docs_of_year.resize(config.years);
  for (int yi = 0; yi < config.years; ++yi) {
    int year = config.first_year + yi;
    int n = per_year[yi];
    int articles = n / 2;
    int journals = std::max(1, articles / 20);
    int procs = std::max(1, (n - articles) / 25);
    int first_journal = static_cast<int>(m.venues.size());
    for (int j = 0; j < journals; ++j) m.venues.push_back({true, year, j + 1});
    int first_proc = static_cast<int>(m.venues.size());
    for (int j = 0; j < procs; ++j) m.venues.push_back({false, year, j + 1});
    for (int k = 0; k < n; ++k) {
      Sp2bModel::Doc doc;
      int id = static_cast<int>(m.docs.size());
      doc.article = k < articles;
      doc.year = year;
      doc.venue = doc.article ? first_journal + static_cast<int>(rng.Below(journals))
                              : first_proc + static_cast<int>(rng.Below(procs));
      int na = AuthorCount(rng);
      while (static_cast<int>(doc.authors.size()) < na) {
        // Skewed author choice: low-numbered persons are prolific.
        int p = static_cast<int>(config.persons * std::pow(rng.Uniform(), 2.2));
        if (std::find(doc.authors.begin(), doc.authors.end(), p) ==
            doc.authors.end()) {
          doc.authors.push_back(p);
        }
      }
      // Citations go to earlier documents, preferring recent ones.
      if (id > 0 && rng.Uniform() < 0.45) {
        int nc = 1;
        while (nc < 4 && rng.Uniform() < 0.4) ++nc;
        for (int c = 0; c < nc; ++c) {
          int target = id - 1 - static_cast<int>(id * std::pow(rng.Uniform(), 3.0));
          if (std::find(doc.cites.begin(), doc.cites.end(), target) ==
              doc.cites.end()) {
            doc.cites.push_back(target);
          }
        }
      }
      if (rng.Uniform() < (doc.article ? 0.7 : 0.5)) {
        doc.pages = 1 + static_cast<int>(rng.Below(300));
      }
      if (doc.article && rng.Uniform() < 0.4) {
        doc.month = 1 + static_cast<int>(rng.Below(12));
      }
      doc.isbn = !doc.article && rng.Uniform() < 0.3;
      doc.abstract = rng.Uniform() < 0.1;
      if (rng.Uniform() < 0.6) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%08llx",
                      static_cast<unsigned long long>(rng.Next() & 0xffffffffULL));
        doc.ee = "http://ee.example.org/" + std::string(buf) + "/" + std::to_string(id);
      }
      m.docs.push_back(std::move(doc));
    }
  }

  m.citers.resize(m.docs.size());
  m.docs_of_venue.resize(m.venues.size());
  size_t triples = 2;  // the two rdfs:subClassOf triples
  for (size_t d = 0; d < m.docs.size(); ++d) {
    const Sp2bModel::Doc& doc = m.docs[d];
    int di = static_cast<int>(d);
    m.docs_of_year[doc.year - config.first_year].push_back(di);
    m.docs_of_venue[doc.venue].push_back(di);
    for (int a : doc.authors) m.docs_of_person[a].push_back(di);
    for (int c : doc.cites) m.citers[c].push_back(di);
    triples += 4 + doc.authors.size() + doc.cites.size() + (doc.article ? 0 : 1) +
               (doc.pages > 0) + (doc.month > 0) + doc.isbn + doc.abstract +
               !doc.ee.empty();
  }
  triples += 3 * m.venues.size() + 2 * m.names.size();
  m.triples = triples;

  for (size_t p = 0; p < m.names.size(); ++p) {
    if (!m.docs_of_person[p].empty()) m.active_persons.push_back(static_cast<int>(p));
  }
  std::stable_sort(m.active_persons.begin(), m.active_persons.end(), [&](int a, int b) {
    return m.docs_of_person[a].size() < m.docs_of_person[b].size();
  });
  for (size_t v = 0; v < m.venues.size(); ++v) {
    if (m.docs_of_venue[v].empty()) continue;
    (m.venues[v].journal ? m.journals : m.proceedings).push_back(static_cast<int>(v));
  }
  for (const Sp2bModel::Doc& doc : m.docs) {
    if (!doc.ee.empty()) m.ees_sorted.push_back(doc.ee);
  }
  std::sort(m.ees_sorted.begin(), m.ees_sorted.end());
  return m;
}

std::string Sp2bModel::Turtle() const {
  std::string t = Prolog();
  // Turtle spells the prolog with @prefix.
  std::string out;
  out.reserve(triples * 48);
  size_t pos = 0;
  while (pos < t.size()) {
    size_t nl = t.find('\n', pos);
    std::string line = t.substr(pos, nl - pos);
    out += "@prefix " + line.substr(7) + " .\n";
    pos = nl + 1;
  }
  out += "bench:Article rdfs:subClassOf foaf:Document .\n";
  out += "bench:Inproceedings rdfs:subClassOf foaf:Document .\n";
  for (size_t v = 0; v < venues.size(); ++v) {
    const Venue& ven = venues[v];
    out += "ven:v" + std::to_string(v) + " a " +
           (ven.journal ? "bench:Journal" : "bench:Proceedings") +
           " ;\n  dc:title " + Quote(VenueTitle(ven)) + " ;\n  dcterms:issued " +
           std::to_string(ven.year) + " .\n";
  }
  for (size_t p = 0; p < names.size(); ++p) {
    out += "per:p" + std::to_string(p) + " a foaf:Person ; foaf:name " +
           Quote(names[p]) + " .\n";
  }
  for (size_t d = 0; d < docs.size(); ++d) {
    const Doc& doc = docs[d];
    out += "pub:d" + std::to_string(d) + " a " +
           (doc.article ? "bench:Article" : "bench:Inproceedings") +
           " ;\n  dc:title " + Quote(DocTitle(static_cast<int>(d))) +
           " ;\n  dcterms:issued " + std::to_string(doc.year);
    for (int a : doc.authors) out += " ;\n  dc:creator per:p" + std::to_string(a);
    if (doc.article) {
      out += " ;\n  swrc:journal ven:v" + std::to_string(doc.venue);
    } else {
      out += " ;\n  dcterms:partOf ven:v" + std::to_string(doc.venue) +
             " ;\n  bench:booktitle " + Quote(VenueTitle(venues[doc.venue]));
    }
    if (doc.pages > 0) out += " ;\n  swrc:pages " + std::to_string(doc.pages);
    if (doc.month > 0) out += " ;\n  swrc:month " + std::to_string(doc.month);
    if (doc.isbn) out += " ;\n  swrc:isbn \"isbn-" + std::to_string(d) + "\"";
    if (doc.abstract) out += " ;\n  bench:abstract \"abstract of " + std::to_string(d) + "\"";
    if (!doc.ee.empty()) out += " ;\n  rdfs:seeAlso " + Quote(doc.ee);
    for (int c : doc.cites) out += " ;\n  dcterms:references pub:d" + std::to_string(c);
    out += " .\n";
  }
  return out;
}

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kLookup: return "lookup";
    case Shape::kQ1: return "q1";
    case Shape::kQ2: return "q2";
    case Shape::kQ3a: return "q3a";
    case Shape::kQ3b: return "q3b";
    case Shape::kQ3c: return "q3c";
    case Shape::kQ4: return "q4";
    case Shape::kQ5b: return "q5b";
    case Shape::kQ6: return "q6";
    case Shape::kQ7: return "q7";
    case Shape::kQ8: return "q8";
    case Shape::kQ9: return "q9";
    case Shape::kQ10: return "q10";
    case Shape::kQ11: return "q11";
    case Shape::kQ12a: return "q12a";
    case Shape::kQ12b: return "q12b";
    case Shape::kQ12c: return "q12c";
    case Shape::kPath: return "path";
    case Shape::kAgg: return "agg";
  }
  return "?";
}

const std::vector<Shape>& RoundShapes() {
  static const std::vector<Shape> kShapes = [] {
    // The weights are chosen, not measured: SP²Bench runs each query on
    // its own and prescribes no mix, and no query log of this engine
    // exists. Every supported shape runs at least once a round, so each
    // counts towards query_qps and the tail; the cheap single-pattern and
    // short-join shapes (lookup, Q1, Q10, Q12c, path: 19 of 40) repeat so
    // that the median read is an interactive lookup rather than an
    // analytical join, as in a client session that browses the metadata.
    std::vector<std::pair<Shape, int>> mix = {
        {Shape::kLookup, 8}, {Shape::kQ1, 3},   {Shape::kQ2, 2},
        {Shape::kQ3a, 1},    {Shape::kQ3b, 1},  {Shape::kQ3c, 1},
        {Shape::kQ4, 2},     {Shape::kQ5b, 2},  {Shape::kQ6, 1},
        {Shape::kQ7, 1},     {Shape::kQ8, 1},   {Shape::kQ9, 2},
        {Shape::kQ10, 3},    {Shape::kQ11, 2},  {Shape::kQ12a, 1},
        {Shape::kQ12b, 2},   {Shape::kQ12c, 3}, {Shape::kPath, 2},
        {Shape::kAgg, 2}};
    // Interleave the shapes so no two heavy statements run back to back.
    std::vector<Shape> out;
    bool more = true;
    for (int pass = 0; more; ++pass) {
      more = false;
      for (const auto& [shape, n] : mix) {
        if (pass < n) {
          out.push_back(shape);
          more = more || pass + 1 < n;
        }
      }
    }
    return out;
  }();
  return kShapes;
}

ReadStatement MakeStatement(const Sp2bModel& m, Shape shape, double u, Rng& rng) {
  ReadStatement st;
  st.shape = shape;
  const std::string& P = Prolog();
  switch (shape) {
    case Shape::kLookup: {
      int d = Pick(m.docs.size(), u);
      st.text = P + "SELECT ?title WHERE { pub:d" + std::to_string(d) + " dc:title ?title }";
      st.bgp_text = st.text;
      st.expected = {DocTitle(d)};
      break;
    }
    case Shape::kQ1: {
      int v = VenueOfKind(m, u, true);
      std::string body = "?journal a bench:Journal ; dc:title " +
                         Quote(VenueTitle(m.venues[v])) + " ; dcterms:issued ?yr";
      st.text = P + "SELECT ?yr WHERE { " + body + " }";
      st.bgp_text = st.text;
      st.expected = {std::to_string(m.venues[v].year)};
      break;
    }
    case Shape::kQ2: {
      int v = VenueOfKind(m, u, false);
      std::string bgp =
          "?inproc a bench:Inproceedings ; dc:creator ?author ; "
          "bench:booktitle ?booktitle ; dc:title ?title ; dcterms:partOf ven:v" +
          std::to_string(v) + " ; dcterms:issued ?yr .";
      st.text = P + "SELECT ?inproc ?author ?booktitle ?title ?yr ?abstract WHERE { " +
                bgp + " OPTIONAL { ?inproc bench:abstract ?abstract } } ORDER BY ?yr";
      st.bgp_text = P + "SELECT * WHERE { " + bgp + " }";
      for (int d : m.docs_of_venue[v]) {
        const auto& doc = m.docs[d];
        for (int a : doc.authors) {
          st.expected.push_back(Row({DocIri(d), PersonIri(a), VenueTitle(m.venues[v]),
                                     DocTitle(d), std::to_string(doc.year),
                                     doc.abstract ? "abstract of " + std::to_string(d) : "-"}));
        }
      }
      break;
    }
    case Shape::kQ3a:
    case Shape::kQ3b:
    case Shape::kQ3c: {
      const char* prop = shape == Shape::kQ3a ? "swrc:pages"
                         : shape == Shape::kQ3b ? "swrc:month" : "swrc:isbn";
      std::string bgp = "?article a bench:Article ; ?property ?value .";
      std::string filter = " FILTER (?property = " + std::string(prop) + ") ";
      st.text = P + "SELECT ?article WHERE { " + bgp + filter + "}";
      st.bgp_text = P + "SELECT * WHERE { " + bgp + filter + "}";
      for (size_t d = 0; d < m.docs.size(); ++d) {
        const auto& doc = m.docs[d];
        if (!doc.article) continue;
        bool has = shape == Shape::kQ3a ? doc.pages > 0
                   : shape == Shape::kQ3b ? doc.month > 0 : doc.isbn;
        if (has) st.expected.push_back(DocIri(static_cast<int>(d)));
      }
      break;
    }
    case Shape::kQ4: {
      int v = VenueOfKind(m, u, true);
      std::string j = "ven:v" + std::to_string(v);
      std::string bgp = "?article1 a bench:Article ; swrc:journal " + j +
                        " ; dc:creator ?author1 . ?author1 foaf:name ?name1 . "
                        "?article2 a bench:Article ; swrc:journal " + j +
                        " ; dc:creator ?author2 . ?author2 foaf:name ?name2 .";
      st.text = P + "SELECT DISTINCT ?name1 ?name2 WHERE { " + bgp +
                " FILTER (?name1 < ?name2) }";
      st.bgp_text = P + "SELECT * WHERE { " + bgp + " FILTER (?name1 < ?name2) }";
      std::set<std::string> names;
      for (int d : m.docs_of_venue[v]) {
        for (int a : m.docs[d].authors) names.insert(m.names[a]);
      }
      for (const std::string& a : names) {
        for (const std::string& b : names) {
          if (a < b) st.expected.push_back(Row({a, b}));
        }
      }
      st.grows_under_writers = true;
      break;
    }
    case Shape::kQ5b:
    case Shape::kQ12a: {
      int y = Year(m, u, 0);
      std::string bgp = "?article a bench:Article ; dcterms:issued " + std::to_string(y) +
                        " ; dc:creator ?person . ?inproc a bench:Inproceedings ; "
                        "dc:creator ?person . ?person foaf:name ?name .";
      std::set<int> persons = Q5bPersons(m, y);
      st.bgp_text = P + "SELECT * WHERE { " + bgp + " }";
      if (shape == Shape::kQ5b) {
        st.text = P + "SELECT DISTINCT ?person ?name WHERE { " + bgp + " }";
        for (int p : persons) st.expected.push_back(Row({PersonIri(p), m.names[p]}));
      } else {
        st.text = P + "ASK { " + bgp + " }";
        st.expected = {persons.empty() ? "false" : "true"};
      }
      break;
    }
    case Shape::kQ6: {
      int y = Year(m, u, 1);
      std::string ys = std::to_string(y);
      std::string bgp = "?class rdfs:subClassOf foaf:Document . ?doc a ?class ; "
                        "dcterms:issued " + ys + " ; dc:creator ?author . "
                        "?author foaf:name ?name .";
      st.text = P + "SELECT ?doc ?name WHERE { " + bgp +
                " OPTIONAL { ?doc2 dc:creator ?author ; dcterms:issued ?yr2 . "
                "FILTER (?yr2 < " + ys + ") } FILTER (!BOUND(?doc2)) }";
      st.bgp_text = P + "SELECT * WHERE { " + bgp + " }";
      for (int d : m.docs_of_year[y - m.config.first_year]) {
        for (int a : m.docs[d].authors) {
          bool earlier = false;
          for (int d2 : m.docs_of_person[a]) earlier = earlier || m.docs[d2].year < y;
          if (!earlier) st.expected.push_back(Row({DocIri(d), m.names[a]}));
        }
      }
      break;
    }
    case Shape::kQ7: {
      int y = Year(m, u, 1);
      std::string bgp = "?doc dcterms:issued " + std::to_string(y) +
                        " ; dc:title ?title . ?citer dcterms:references ?doc .";
      st.text = P + "SELECT DISTINCT ?title WHERE { " + bgp +
                " FILTER NOT EXISTS { ?c2 dcterms:references ?doc . "
                "FILTER NOT EXISTS { ?c3 dcterms:references ?c2 } } }";
      st.bgp_text = P + "SELECT * WHERE { " + bgp + " }";
      for (int d : m.docs_of_year[y - m.config.first_year]) {
        if (m.citers[d].empty()) continue;
        bool all_cited = true;
        for (int c : m.citers[d]) all_cited = all_cited && !m.citers[c].empty();
        if (all_cited) st.expected.push_back(DocTitle(d));
      }
      break;
    }
    case Shape::kQ8: {
      int e = ActivePerson(m, u);
      std::string ep = "per:p" + std::to_string(e);
      st.text = P + "SELECT DISTINCT ?name WHERE { "
                "{ ?doc dc:creator " + ep + " . ?doc dc:creator ?author . "
                "?doc2 dc:creator ?author . ?doc2 dc:creator ?author2 . "
                "?author2 foaf:name ?name . FILTER (?author != " + ep +
                " && ?doc2 != ?doc && ?author2 != " + ep + " && ?author2 != ?author) } "
                "UNION { ?doc dc:creator " + ep + " . ?doc dc:creator ?author . "
                "?author foaf:name ?name . FILTER (?author != " + ep + ") } }";
      st.bgp_text = P + "SELECT * WHERE { ?doc dc:creator " + ep +
                    " . ?doc dc:creator ?author . ?author foaf:name ?name . }";
      std::set<std::string> names;
      for (int d : m.docs_of_person[e]) {
        for (int a : m.docs[d].authors) {
          if (a == e) continue;
          names.insert(m.names[a]);
          for (int d2 : m.docs_of_person[a]) {
            if (d2 == d) continue;
            for (int a2 : m.docs[d2].authors) {
              if (a2 != e && a2 != a) names.insert(m.names[a2]);
            }
          }
        }
      }
      st.expected.assign(names.begin(), names.end());
      break;
    }
    case Shape::kQ9: {
      int p = ActivePerson(m, u);
      std::string pp = "per:p" + std::to_string(p);
      st.text = P + "SELECT DISTINCT ?predicate WHERE { { " + pp +
                " ?predicate ?object } UNION { ?subject ?predicate " + pp + " } }";
      st.bgp_text = P + "SELECT * WHERE { " + pp + " ?predicate ?object }";
      st.expected = {kRdfType, kFoafName, kDcCreator};
      break;
    }
    case Shape::kQ10: {
      int p = ActivePerson(m, u);
      st.text = P + "SELECT ?subj ?pred WHERE { ?subj ?pred per:p" + std::to_string(p) + " }";
      st.bgp_text = st.text;
      for (int d : m.docs_of_person[p]) st.expected.push_back(Row({DocIri(d), kDcCreator}));
      st.grows_under_writers = true;
      break;
    }
    case Shape::kQ11: {
      const std::vector<std::string>& ees = m.ees_sorted;
      size_t off = Pick(ees.size() - 10, u);
      st.text = P + "SELECT ?ee WHERE { ?publication rdfs:seeAlso ?ee } "
                "ORDER BY ?ee LIMIT 10 OFFSET " + std::to_string(off);
      st.bgp_text = P + "SELECT * WHERE { ?publication rdfs:seeAlso ?ee }";
      st.expected.assign(ees.begin() + off, ees.begin() + off + 10);
      st.ordered = true;
      break;
    }
    case Shape::kQ12b: {
      int e = ActivePerson(m, u);
      int x;
      std::vector<int> co = Coauthors(m, e);
      if (!co.empty() && rng.Uniform() < 0.5) {
        std::vector<int> co2 = Coauthors(m, co[rng.Below(co.size())]);
        x = co2.empty() ? co[0] : co2[rng.Below(co2.size())];
      } else {
        x = static_cast<int>(rng.Below(m.names.size()));
      }
      // ASK true iff some document of e has an author a sharing a
      // document with x (a may be e itself).
      bool found = false;
      for (int d : m.docs_of_person[e]) {
        for (int a : m.docs[d].authors) {
          for (int d2 : m.docs_of_person[a]) {
            const auto& au = m.docs[d2].authors;
            found = found || std::find(au.begin(), au.end(), x) != au.end();
          }
        }
      }
      st.text = P + "ASK { ?doc dc:creator per:p" + std::to_string(e) +
                " . ?doc dc:creator ?a . ?doc2 dc:creator ?a . ?doc2 dc:creator per:p" +
                std::to_string(x) + " }";
      st.bgp_text = P + "SELECT * WHERE { ?doc dc:creator per:p" + std::to_string(e) +
                    " . ?doc dc:creator ?a . ?doc2 dc:creator ?a . ?doc2 dc:creator per:p" +
                    std::to_string(x) + " }";
      st.expected = {found ? "true" : "false"};
      break;
    }
    case Shape::kQ12c: {
      int p = Pick(m.names.size() + m.names.size() / 4, u);
      st.text = P + "ASK { per:p" + std::to_string(p) + " a foaf:Person }";
      st.bgp_text = P + "SELECT * WHERE { per:p" + std::to_string(p) + " a foaf:Person }";
      st.expected = {p < static_cast<int>(m.names.size()) ? "true" : "false"};
      break;
    }
    case Shape::kPath: {
      int d = Pick(m.docs.size(), u);
      std::string dd = "pub:d" + std::to_string(d);
      st.text = P + "SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { " + dd +
                " dcterms:references+ ?c }";
      st.bgp_text = P + "SELECT * WHERE { " + dd + " dcterms:references ?c }";
      std::vector<char> seen(m.docs.size(), 0);
      std::vector<int> frontier = {d};
      size_t reached = 0;
      while (!frontier.empty()) {
        int x = frontier.back();
        frontier.pop_back();
        for (int c : m.docs[x].cites) {
          if (!seen[c]) {
            seen[c] = 1;
            ++reached;
            frontier.push_back(c);
          }
        }
      }
      st.expected = {std::to_string(reached)};
      break;
    }
    case Shape::kAgg: {
      int p = ActivePerson(m, u);
      std::string bgp = "?doc dc:creator per:p" + std::to_string(p) + " ; dcterms:issued ?yr .";
      st.text = P + "SELECT ?yr (COUNT(?doc) AS ?n) WHERE { " + bgp +
                " } GROUP BY ?yr ORDER BY ?yr";
      st.bgp_text = P + "SELECT * WHERE { " + bgp + " }";
      std::map<int, int> per_year;
      for (int d : m.docs_of_person[p]) ++per_year[m.docs[d].year];
      for (const auto& [y, n] : per_year) {
        st.expected.push_back(Row({std::to_string(y), std::to_string(n)}));
      }
      st.ordered = true;
      st.grows_under_writers = true;
      break;
    }
  }
  return st;
}

void LogShapes(const std::map<Shape, Samples>& per_shape) {
  Log("%-8s %8s %10s %10s %10s", "shape", "count", "p50_ms", "p99_ms", "total_ms");
  for (const auto& [shape, s] : per_shape) {
    Log("%-8s %8zu %10.3f %10.3f %10.1f", ShapeName(shape), s.size(), s.Quantile(0.5),
        s.Quantile(0.99), s.Sum());
  }
}

namespace {

std::string Cell(const Term& t) {
  if (t.IsUndef()) return "-";
  if (t.IsIri()) return t.iri();
  if (t.kind() == Term::Kind::kString) return t.lexical();
  if (t.kind() == Term::Kind::kInteger) return std::to_string(t.integer());
  return t.ToString();
}

}  // namespace

std::vector<std::string> CanonicalRows(const QueryOutcome& out) {
  if (out.kind() == QueryOutcome::Kind::kAsk) return {out.ask() ? "true" : "false"};
  std::vector<std::string> rows;
  if (out.kind() != QueryOutcome::Kind::kRows) return rows;
  for (const auto& row : out.rows().rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += '\t';
      line += Cell(row[i]);
    }
    rows.push_back(std::move(line));
  }
  return rows;
}

std::string CheckAnswer(const ReadStatement& st, const QueryOutcome& out,
                        bool lower_bound) {
  std::vector<std::string> got = CanonicalRows(out);
  std::vector<std::string> want = st.expected;
  if (lower_bound && st.grows_under_writers) {
    std::multiset<std::string> have(got.begin(), got.end());
    for (const std::string& w : want) {
      if (have.find(w) == have.end()) {
        return std::string(ShapeName(st.shape)) + ": missing row [" + w + "]";
      }
    }
    return "";
  }
  if (!st.ordered) {
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
  }
  if (got == want) return "";
  std::string diff = std::string(ShapeName(st.shape)) + ": got " +
                     std::to_string(got.size()) + " rows, want " +
                     std::to_string(want.size());
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] != want[i]) {
      diff += "; first difference [" + got[i] + "] vs [" + want[i] + "]";
      break;
    }
  }
  return diff;
}

Sp2bMix::Sp2bMix(const Sp2bModel& m, uint64_t seed, bool middle) : m_(m), rng_(seed) {
  for (Shape s : RoundShapes()) offset_[s] = middle ? 0.5 : rng_.Uniform();
}

std::vector<ReadStatement> Sp2bMix::NextRound() {
  std::vector<ReadStatement> round;
  for (Shape s : RoundShapes()) {
    // Kronecker sequence: any run of consecutive draws spreads evenly over
    // [0, 1), so every round count samples the constants' cost range alike.
    double u = std::fmod(offset_[s] + static_cast<double>(drawn_[s]++) * 0.6180339887498949, 1.0);
    round.push_back(MakeStatement(m_, s, u, rng_));
  }
  return round;
}

std::string WriterDocTriples(const std::string& iri, int author, int journal, int cited) {
  return "<" + iri + "> a bench:Article ; dc:title \"writer document\" ; "
         "dcterms:issued 2100 ; dc:creator per:p" + std::to_string(author) +
         " ; swrc:journal ven:v" + std::to_string(journal) +
         " ; dcterms:references pub:d" + std::to_string(cited) + " .";
}

}  // namespace perfbench
