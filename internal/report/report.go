// Package report renders regenerated figures and tables in the formats the
// repository's tools emit: aligned text (terminal), CSV (plotting / the
// chart's table view) and Markdown (EXPERIMENTS.md-style documents). The
// cmd tools are thin wrappers over this package so the formatting logic is
// tested.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Series is one labelled curve or bar group. The facade's dxbar.Series and
// viz.Series are aliases of it, so a figure needs no conversion on its way to
// a writer or a renderer.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	// XNames labels categorical X axes (patterns, benchmarks).
	XNames []string
}

// Figure is regenerated data for one paper figure (dxbar.Figure is an alias).
type Figure struct {
	ID, Title, XLabel, YLabel string
	Series                    []Series
}

// WriteText renders the figure as the aligned terminal table the sweep tool
// prints.
func WriteText(w io.Writer, fig Figure) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n   x: %s | y: %s\n",
		fig.ID, fig.Title, fig.XLabel, fig.YLabel); err != nil {
		return err
	}
	for _, s := range fig.Series {
		if _, err := fmt.Fprintf(w, "%-22s", s.Label); err != nil {
			return err
		}
		for i := range s.X {
			var err error
			if s.XNames != nil {
				_, err = fmt.Fprintf(w, " %s=%.3f", s.XNames[i], s.Y[i])
			} else {
				_, err = fmt.Fprintf(w, " %.2f:%.3f", s.X[i], s.Y[i])
			}
			if err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the figure as long-format CSV: series,x,x_name,y.
func WriteCSV(w io.Writer, fig Figure) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "x", "x_name", "y"}); err != nil {
		return err
	}
	for _, s := range fig.Series {
		for i := range s.X {
			name := ""
			if s.XNames != nil {
				name = s.XNames[i]
			}
			rec := []string{
				s.Label,
				strconv.FormatFloat(s.X[i], 'f', 3, 64),
				name,
				strconv.FormatFloat(s.Y[i], 'f', 6, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMarkdown renders the figure as a Markdown table: one row per series,
// one column per x position (the layout EXPERIMENTS.md uses).
func WriteMarkdown(w io.Writer, fig Figure) error {
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n", fig.ID, fig.Title); err != nil {
		return err
	}
	if len(fig.Series) == 0 {
		_, err := fmt.Fprintln(w, "(no data)")
		return err
	}
	// Header from the first series' axis.
	head := []string{"series"}
	first := fig.Series[0]
	for i := range first.X {
		if first.XNames != nil {
			head = append(head, escapeCell(first.XNames[i]))
		} else {
			head = append(head, trimFloat(first.X[i]))
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(head, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(head))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, s := range fig.Series {
		row := []string{escapeCell(s.Label)}
		for _, y := range s.Y {
			row = append(row, strconv.FormatFloat(y, 'f', 3, 64))
		}
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Table is a generic labelled table (Table III, ablation outputs).
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// WriteTableText renders the table with aligned columns.
func WriteTableText(w io.Writer, t Table) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteTableCSV renders the table as CSV.
func WriteTableCSV(w io.Writer, t Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTableMarkdown renders the table as a Markdown table.
func WriteTableMarkdown(w io.Writer, t Table) error {
	if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
		return err
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = escapeCell(c)
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cols, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = escapeCell(c)
		}
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

func escapeCell(s string) string {
	return strings.ReplaceAll(s, "|", `\|`)
}
