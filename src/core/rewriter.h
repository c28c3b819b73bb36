#ifndef PHOENIX_CORE_REWRITER_H_
#define PHOENIX_CORE_REWRITER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "sql/ast.h"

namespace phoenix::core {

/// AST-level SQL rewrites — the mechanics behind each Phoenix trick in §3 of
/// the paper. All functions are pure (no I/O); the driver manager decides
/// which connection executes the emitted SQL.

/// The `WHERE 0=1` metadata probe: same select, guaranteed-empty result,
/// compile-only server work. ORDER BY/LIMIT are stripped (metadata-neutral).
/// Keyset/dynamic proxies and the client-copy ablation use it.
std::unique_ptr<sql::SelectStmt> MakeMetadataProbe(const sql::SelectStmt& sel);

/// The first-block probe of a materialized read: the application's own
/// query with its LIMIT capped at `block_size + 1` rows (min with its own
/// LIMIT). At most `block_size` rows back means the reply holds the whole
/// result; `block_size + 1` means it overflows one block.
std::unique_ptr<sql::SelectStmt> MakeFirstBlockProbe(const sql::SelectStmt& sel,
                                                     uint64_t block_size);

/// CREATE TABLE <name> (...) from result-set metadata, for the client-copy
/// ablation (PhoenixConfig::materialize_via_server = false). Column names
/// are sanitized to valid, unique identifiers (C1..Cn fallback) — the app
/// never sees this table's schema, only the original metadata.
sql::CreateTableStmt MakeCreateTableFromMetadata(const std::string& table,
                                                 const Schema& metadata);

/// The materialization script — one private-connection round trip, one
/// commit:
///   BEGIN TRANSACTION; DROP TABLE IF EXISTS <retired>...;
///   DROP TABLE IF EXISTS <table>; SELECT <source> INTO <table>; COMMIT
/// Data never leaves the server (the role of the paper's stored procedure
/// P), and re-sending the whole script after a lost reply or a crash is
/// safe: the DROPs make the SELECT INTO start clean.
std::string MakeMaterializeScript(const sql::SelectStmt& source,
                                  const std::string& table,
                                  const std::vector<std::string>& retired);

/// SELECT <pk...> FROM <base> WHERE <sel.where> ORDER BY <pk...> — key-set
/// materialization source for keyset/dynamic cursors.
std::unique_ptr<sql::SelectStmt> MakeSelectKeys(
    const sql::SelectStmt& sel, const std::vector<std::string>& pk_columns);

/// SELECT <sel.items> FROM <base> WHERE pk1=k1 AND pk2=k2... — keyset
/// per-fetch current-row lookup.
std::unique_ptr<sql::SelectStmt> MakeKeyLookup(
    const sql::SelectStmt& sel, const std::vector<std::string>& pk_columns,
    const Row& key);

/// Dynamic-cursor range fetch: original WHERE AND pk > low AND pk <= high,
/// ORDER BY pk. `low` may be null (start of cursor). Single-column PKs only.
std::unique_ptr<sql::SelectStmt> MakeRangeLookup(
    const sql::SelectStmt& sel, const std::string& pk_column,
    const Value* low, const Value& high);

/// The DML wrap: BEGIN; <dml>; INSERT INTO <status>(REQ_ID, AFFECTED)
/// VALUES (req, ROWCOUNT()); COMMIT — one atomic unit whose outcome is
/// testable after a crash.
std::string MakeDmlWrap(const std::string& status_table, uint64_t req_id,
                        const sql::Statement& dml);

/// SELECT AFFECTED FROM <status> WHERE REQ_ID = req — the post-crash probe.
std::string MakeStatusProbe(const std::string& status_table, uint64_t req_id);

/// DDL for the per-connection status table.
std::string MakeStatusTableDdl(const std::string& status_table);

/// Renames every table/procedure reference appearing in `stmt` according to
/// `table_map` / `proc_map` (keys uppercased). A FROM reference renamed
/// without an alias gets its original name as alias, so existing column
/// qualifiers keep resolving. Returns true if anything changed.
bool RenameObjects(sql::Statement* stmt,
                   const std::map<std::string, std::string>& table_map,
                   const std::map<std::string, std::string>& proc_map);

/// Makes a metadata column name a safe unique identifier.
std::string SanitizeColumnName(const std::string& name, size_t index,
                               std::map<std::string, int>* used);

}  // namespace phoenix::core

#endif  // PHOENIX_CORE_REWRITER_H_
