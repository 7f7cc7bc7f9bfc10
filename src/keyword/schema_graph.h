// The schema graph: relations as nodes, join relationships as edges
// (Figure 1 of the paper). Candidate networks are connected subtrees of
// this graph; edge and node costs feed the Q System scoring model and
// may be customized per user.

#ifndef QSYS_KEYWORD_SCHEMA_GRAPH_H_
#define QSYS_KEYWORD_SCHEMA_GRAPH_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/catalog.h"

namespace qsys {

/// \brief An undirected join edge between two relations: a foreign key,
/// hyperlink, or record-link relationship.
struct SchemaEdge {
  int id = -1;
  TableId table_a = kInvalidTable;
  int col_a = 0;
  TableId table_b = kInvalidTable;
  int col_b = 0;
  /// Base edge cost (how "useful" traversing this edge is; lower is
  /// better). Learned in the real Q System; assigned by the workload
  /// generators here.
  double cost = 1.0;
};

/// \brief Join-relationship graph over the catalog's relations.
class SchemaGraph {
 public:
  explicit SchemaGraph(const Catalog* catalog);

  const Catalog& catalog() const { return *catalog_; }

  /// Adds an undirected edge joining a.col_a == b.col_b; columns by name.
  Result<int> AddEdge(TableId a, const std::string& col_a, TableId b,
                      const std::string& col_b, double cost);
  /// Column-index overload.
  int AddEdgeByIndex(TableId a, int col_a, TableId b, int col_b,
                     double cost);

  const std::vector<SchemaEdge>& edges() const { return edges_; }
  const SchemaEdge& edge(int id) const { return edges_[id]; }

  /// Edge ids incident to `table`.
  const std::vector<int>& EdgesOf(TableId table) const;

  /// Authoritativeness cost of a relation (Q model node cost).
  double node_cost(TableId table) const {
    if (table < 0 || table >= static_cast<TableId>(node_costs_.size())) {
      return 0.0;
    }
    return node_costs_[table];
  }
  void set_node_cost(TableId table, double cost) {
    if (table >= static_cast<TableId>(node_costs_.size())) {
      node_costs_.resize(table + 1, 0.0);
      adjacency_.resize(table + 1);
    }
    node_costs_[table] = cost;
  }

  /// Cheapest path (total edge cost) from any table in `from` to `to`.
  /// Returns the edge-id sequence; empty optional-like: an empty vector
  /// with `found == false`.
  struct Path {
    bool found = false;
    std::vector<int> edge_ids;
    double cost = 0.0;
  };
  Path ShortestPath(const std::vector<TableId>& from, TableId to) const;

 private:
  const Catalog* catalog_;
  std::vector<SchemaEdge> edges_;
  std::vector<std::vector<int>> adjacency_;  // by table id
  std::vector<double> node_costs_;
  static const std::vector<int> kNoEdges;
};

}  // namespace qsys

#endif  // QSYS_KEYWORD_SCHEMA_GRAPH_H_
