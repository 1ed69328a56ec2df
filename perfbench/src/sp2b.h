// Seeded SP²Bench-shaped publication graph (Schmidt et al., "SP²Bench: A
// SPARQL Performance Benchmark"). The generator follows the DBLP-like shape
// of the original: document counts grow with the year, authors per paper
// follow a skewed distribution with a few prolific authors, and papers cite
// earlier papers. It keeps its own model of what it generated, and every
// statement it produces carries the answer computed from that model by plain
// C++ (set algebra and breadth-first search), never by the engine.
#ifndef PERFBENCH_SP2B_H_
#define PERFBENCH_SP2B_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/query_api.h"
#include "harness.h"

namespace perfbench {

struct Sp2bConfig {
  int docs = 4000;
  int persons = 1600;
  int first_year = 1960;
  int years = 40;
};

/// The generated publication model.
struct Sp2bModel {
  struct Doc {
    bool article = true;
    int year = 0;
    int venue = 0;  ///< journal (articles) or proceedings (inproceedings)
    std::vector<int> authors;
    std::vector<int> cites;  ///< earlier documents this one references
    int pages = 0;           ///< 0 = no swrc:pages
    int month = 0;           ///< 0 = no swrc:month
    bool isbn = false;
    bool abstract = false;
    std::string ee;  ///< rdfs:seeAlso value; empty = none
  };
  struct Venue {
    bool journal = true;
    int year = 0;
    int number = 0;
  };

  Sp2bConfig config;
  std::vector<Doc> docs;
  std::vector<Venue> venues;
  std::vector<std::string> names;  ///< foaf:name per person

  // Inverse indexes over the model, for computing answers.
  std::vector<std::vector<int>> docs_of_person;
  std::vector<std::vector<int>> citers;  ///< documents citing each document
  std::vector<std::vector<int>> docs_of_year;
  std::vector<std::vector<int>> docs_of_venue;
  std::vector<int> active_persons;  ///< with documents, fewest first
  std::vector<int> journals;        ///< journals with articles
  std::vector<int> proceedings;     ///< proceedings with papers
  std::vector<std::string> ees_sorted;

  size_t triples = 0;

  std::string Turtle() const;
};

Sp2bModel GenerateSp2b(const Sp2bConfig& config, uint64_t seed);

// IRIs of generated entities.
std::string DocIri(int d);
std::string PersonIri(int p);
/// The PREFIX prolog every generated statement starts with.
const std::string& Prolog();

/// One statement shape of the query mix. Constants restrict the heavy
/// SP²Bench queries to one venue, year or person (Q2, Q4, Q5b, Q6, Q7, Q8,
/// Q9, Q10). Not run: Q5a, whose name-equality FILTER join is not rewritten
/// into a join (over 20 s at 41.5k triples); Q6's original correlated form
/// `FILTER (?author = ?author2 && ?yr2 < ?yr)` inside OPTIONAL (over 20 s);
/// and Q4 over all journals, on the order of 10^5 pairs (counting them
/// needs a sub-SELECT, which the dialect cannot parse).
enum class Shape {
  kLookup,  ///< single-pattern lookup of a document's title
  kQ1, kQ2, kQ3a, kQ3b, kQ3c, kQ4, kQ5b, kQ6, kQ7, kQ8, kQ9, kQ10, kQ11,
  kQ12a, kQ12b, kQ12c,
  kPath,    ///< citation closure: dcterms:references+
  kAgg,     ///< per-year publication counts of one author (GROUP BY)
};
const char* ShapeName(Shape s);

/// A generated read statement with its expected answer.
struct ReadStatement {
  Shape shape;
  std::string text;
  /// The statement's mandatory basic graph pattern alone, with the FILTERs
  /// the engine pushes into it, as SELECT *: the traced run times it to
  /// split BGP time from the rest of execution.
  std::string bgp_text;
  /// Canonical expected rows ("\t"-joined cells), or one row holding
  /// "true"/"false" for ASK.
  std::vector<std::string> expected;
  bool ordered = false;
  /// True when concurrent writers (see WriterDocTriples) can add rows: the answer
  /// is then checked as a lower bound (every expected row present).
  bool grows_under_writers = false;
};

/// The fixed shape mix of one round, in execution order.
const std::vector<Shape>& RoundShapes();

/// A statement of `shape`. Its main constant is element floor(u * n) of the
/// constant's domain, ordered by cost where cost varies (persons by
/// document count, years ascending); `rng` draws the secondary ones.
ReadStatement MakeStatement(const Sp2bModel& m, Shape shape, double u, Rng& rng);

/// One client's statement stream: rounds of the fixed shape mix whose main
/// constants follow a per-shape low-discrepancy sequence, so every run,
/// however many rounds it completes, samples the cheap and the costly
/// constants in the same proportions.
class Sp2bMix {
 public:
  /// `middle`: start every shape's sequence at 0.5, so the first round
  /// draws mid-range constants whatever the seed (the cold pass uses it).
  Sp2bMix(const Sp2bModel& m, uint64_t seed, bool middle = false);
  std::vector<ReadStatement> NextRound();

 private:
  const Sp2bModel& m_;
  Rng rng_;
  std::map<Shape, double> offset_;
  std::map<Shape, uint64_t> drawn_;
};

/// Prints count, median and p99 latency per shape to stderr.
void LogShapes(const std::map<Shape, Samples>& per_shape);

/// Canonical rendering of a result, comparable with ReadStatement::expected.
std::vector<std::string> CanonicalRows(const scisparql::QueryOutcome& out);

/// Compares an answer with the expectation; returns "" when it matches,
/// else a short description of the difference.
std::string CheckAnswer(const ReadStatement& st,
                        const scisparql::QueryOutcome& out, bool lower_bound);

/// Triples of a document added by a concurrent writer: an article of the
/// year 2100 by one existing author in one existing journal, citing
/// `cited`. With a first-year `cited` (no Q7 or citation path reaches one),
/// such documents never change the answer of a statement whose
/// grows_under_writers flag is false.
std::string WriterDocTriples(const std::string& iri, int author, int journal, int cited);
inline constexpr int kWriterDocTriples = 6;

}  // namespace perfbench

#endif  // PERFBENCH_SP2B_H_
