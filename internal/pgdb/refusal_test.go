package pgdb_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/wire/pgv3"
)

// TestRefusedSQLOverTheWire: pgdb runs the SQL Hyper-Q sends and refuses the
// rest. Each statement below uses a construct no producer writes — the
// serializer, the loader, the session's views and temp tables, the MDI's
// catalog query — and must fail over PG v3 with its SQLSTATE and message:
// a statement or clause the parser does not know is 42601, a function,
// aggregate or window name nothing writes is 42883, a catalog relation
// other than information_schema.columns, or any other schema-qualified
// name, is 42P01. A refused statement
// changes nothing, and the connection keeps serving.
func TestRefusedSQLOverTheWire(t *testing.T) {
	ctx := context.Background()
	gw, err := gateway.Pipe(ctx, pgdb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for _, sql := range []string{
		"CREATE TABLE t (k bigint, s varchar, f double precision)",
		"INSERT INTO t VALUES (1, 'a', 1.5), (2, NULL, -2.5), (3, 'c', NULL)",
		"CREATE TABLE u (k bigint, w bigint)",
		"INSERT INTO u VALUES (1, 10), (4, 40)",
	} {
		if _, err := gw.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	const parse = "sql parse error"
	for _, c := range []struct{ sql, code, msg string }{
		// statements: tables are append-only
		{"UPDATE t SET k = 0", "42601", parse},
		{"DELETE FROM t WHERE k = 1", "42601", parse},
		{"DELETE FROM t", "42601", parse},
		{"TRUNCATE t", "42601", parse},
		{"TRUNCATE TABLE t", "42601", parse},
		{"BEGIN", "42601", parse},
		{"COMMIT", "42601", parse},
		{"ROLLBACK", "42601", parse},
		{"INSERT INTO t (k) VALUES (9)", "42601", parse},
		// a short row fails the whole statement: the rows before it stay out
		{"INSERT INTO t VALUES (4, 'd', 4.5), (5)", "42601", "INSERT has 1 expressions but 3 target columns"},
		{"INSERT INTO t SELECT k, s, f FROM t", "42601", parse},
		{"CREATE TABLE IF NOT EXISTS t (k bigint)", "42601", parse},
		{"CREATE TABLE v (s varchar(10))", "42601", parse},
		{"CREATE TABLE v (k bigint NOT NULL)", "42601", parse},
		// clauses
		{"SELECT DISTINCT s FROM t", "42601", parse},
		{"SELECT s FROM t UNION SELECT s FROM t", "42601", parse},
		{"SELECT s, count(*) FROM t GROUP BY s HAVING count(*) > 1", "42601", parse},
		{"SELECT k FROM t LIMIT 1 OFFSET 1", "42601", parse},
		{"SELECT k FROM t, u", "42601", parse},
		{"SELECT t.k FROM t CROSS JOIN u", "42601", parse},
		{"SELECT t.k FROM t RIGHT JOIN u ON t.k = u.k", "42601", parse},
		{"SELECT t.k FROM t FULL JOIN u ON t.k = u.k", "42601", parse},
		{"SELECT t.k FROM t LEFT OUTER JOIN u ON t.k = u.k", "42601", parse},
		{"SELECT t.k FROM t INNER JOIN u ON t.k = u.k", "42601", parse},
		// RIGHT stays reserved: this is not the inner join FROM t AS right
		{"SELECT k FROM t RIGHT JOIN u ON t.k = u.k", "42601", parse},
		{"SELECT k FROM t WHERE k IN (1, 2)", "42601", parse},
		{"SELECT k FROM t WHERE k NOT IN (1, 2)", "42601", parse},
		{"SELECT k FROM t WHERE s NOT LIKE 'a%'", "42601", parse},
		{"SELECT k FROM t WHERE s ILIKE 'A%'", "42601", parse},
		{"SELECT k FROM t WHERE k NOT BETWEEN 1 AND 2", "42601", parse},
		{"SELECT k FROM t WHERE (k > 1) IS TRUE", "42601", parse},
		{"SELECT k FROM t WHERE (k > 1) IS FALSE", "42601", parse},
		{"SELECT k FROM t WHERE k != 1", "42601", parse},
		{"SELECT count(DISTINCT s) FROM t", "42601", parse},
		{"SELECT ROW_NUMBER() OVER (ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) FROM t", "42601", parse},
		// expressions: only the searched CASE, and subqueries only in FROM
		{"SELECT CASE k WHEN 1 THEN 'one' ELSE 'other' END FROM t", "42601", parse},
		{"SELECT k FROM t WHERE f > (SELECT avg(f) FROM t)", "42601", parse},
		{"SELECT (SELECT max(k) FROM u) - k FROM t", "42601", parse},
		// names: functions, aggregates and windows
		{"SELECT power(f, 2) FROM t", "42883", "function power does not exist"},
		{"SELECT trim(s) FROM t", "42883", "function trim does not exist"},
		{"SELECT length(s) FROM t", "42883", "function length does not exist"},
		{"SELECT substring(s, 1, 1) FROM t", "42883", "function substring does not exist"},
		{"SELECT round(f) FROM t", "42883", "function round does not exist"},
		{"SELECT ceiling(f) FROM t", "42883", "function ceiling does not exist"},
		{"SELECT stddev(f) FROM t", "42883", "function stddev does not exist"},
		{"SELECT variance(f) FROM t", "42883", "function variance does not exist"},
		{"SELECT var_samp(f) FROM t", "42883", "function var_samp does not exist"},
		{"SELECT bool_and(k > 0) FROM t", "42883", "function bool_and does not exist"},
		{"SELECT string_agg(s, ',') FROM t", "42883", "function string_agg does not exist"},
		{"SELECT rank() OVER (ORDER BY k) FROM t", "42883", "window function rank does not exist"},
		{"SELECT lag(k) OVER (ORDER BY k) FROM t", "42883", "window function lag does not exist"},
		{"SELECT sum(k) OVER (PARTITION BY s) FROM t", "42883", "window function sum does not exist"},
		// a window is a whole select item; nested, it is an unknown function
		{"SELECT ROW_NUMBER() OVER (ORDER BY k) + 1 FROM t", "42883", "function row_number does not exist"},
		// catalog relations
		{"SELECT table_name FROM information_schema.tables", "42P01", "relation information_schema.tables does not exist"},
		{"SELECT tablename FROM pg_catalog.pg_tables", "42P01", "relation pg_catalog.pg_tables does not exist"},
		// tables are named bare: a schema qualifier is refused, public too
		{"SELECT * FROM public.t", "42P01", "relation public.t does not exist"},
		// an ORDER BY key names an output column: 42P10
		{"SELECT k FROM t ORDER BY f", "42P10", "ORDER BY expression must name an output column"},
		{"SELECT k FROM t ORDER BY t.k", "42P10", "ORDER BY expression must name an output column"},
		// a negative LIMIT is refused before a row is read, top-level or in
		// a FROM subquery: 2201W
		{"SELECT k FROM t LIMIT -1", "2201W", "LIMIT must not be negative"},
		{"SELECT k FROM (SELECT k FROM t LIMIT -1) x", "2201W", "LIMIT must not be negative"},
	} {
		_, err := gw.Exec(ctx, c.sql)
		var se *pgv3.ServerError
		if !errors.As(err, &se) || se.Code != c.code || !strings.HasPrefix(se.Message, c.msg) {
			t.Errorf("%s: %v, want SQLSTATE %s %q...", c.sql, err, c.code, c.msg)
		}
	}
	res, err := gw.Exec(ctx, "SELECT count(*), sum(k) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Text + " " + res.Rows[0][1].Text; got != "3 6" {
		t.Fatalf("table after the refusals: count, sum = %s, want 3 6", got)
	}
}
