// Package viz renders regenerated paper figures as standalone SVG files
// (line charts for the load/fault sweeps, grouped bar charts for the
// categorical pattern/benchmark axes). The output is a static figure for
// docs and reports; the machine-readable "table view" ships alongside it as
// the CSV the sweep tool writes for the same figure.
//
// Colors follow a validated categorical palette (fixed slot order chosen to
// maximize adjacent colorblind-safe separation; worst adjacent CVD ΔE 24.2
// on the light surface), text wears ink tokens rather than series colors,
// lines are 2px with 8px markers, bars have rounded data-ends anchored to
// the baseline with 2px surface gaps, and the grid is recessive. A legend
// is always present for multi-series figures.
package viz

import (
	"fmt"
	"math"
	"strings"

	"dxbar/internal/report"
)

// The validated light-mode palette: surface, ink tokens, and the fixed
// categorical slot order (never cycled; figures here have at most eight
// series by construction).
const (
	surface       = "#fcfcfb"
	textPrimary   = "#0b0b0b"
	textSecondary = "#52514e"
	gridStroke    = "#e4e3df"
	axisStroke    = "#c3c2b7"
)

var seriesColors = []string{
	"#2a78d6", // blue
	"#1baf7a", // aqua
	"#eda100", // yellow
	"#008300", // green
	"#4a3aa7", // violet
	"#e34948", // red
	"#e87ba4", // magenta
	"#eb6834", // orange
}

// Series is one labelled data series: the figure series of internal/report,
// shared so a figure's series render without a copy.
type Series = report.Series

// Chart is the renderable figure description.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// geometry constants (px).
const (
	chartW   = 760
	chartH   = 440
	padLeft  = 64
	padRight = 168 // legend column
	padTop   = 44
	padBot   = 56
)

// LineSVG renders the chart as connected lines with markers (numeric X).
func LineSVG(c Chart) string {
	var b strings.Builder
	plotW := chartW - padLeft - padRight
	plotH := chartH - padTop - padBot

	xmin, xmax, ymax := bounds(c)
	xscale := func(x float64) float64 {
		if xmax == xmin {
			return padLeft
		}
		return padLeft + (x-xmin)/(xmax-xmin)*float64(plotW)
	}
	yscale := func(y float64) float64 {
		if ymax == 0 {
			return float64(padTop + plotH)
		}
		return float64(padTop+plotH) - y/ymax*float64(plotH)
	}

	header(&b, c)
	gridAndAxes(&b, c, xmin, xmax, ymax, xscale, yscale, nil)

	for si, s := range c.Series {
		color := seriesColors[si%len(seriesColors)]
		var path strings.Builder
		for i := range s.X {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, xscale(s.X[i]), yscale(s.Y[i]))
		}
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="2" stroke-linejoin="round"/>`+"\n",
			strings.TrimSpace(path.String()), color)
		for i := range s.X {
			// 8px markers with a 2px surface ring so overlapping points
			// stay distinguishable.
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="4" fill="%s" stroke="%s" stroke-width="2"/>`+"\n",
				xscale(s.X[i]), yscale(s.Y[i]), color, surface)
		}
	}
	legend(&b, c)
	b.WriteString("</svg>\n")
	return b.String()
}

// BarSVG renders the chart as grouped bars (categorical X via XNames).
func BarSVG(c Chart) string {
	var b strings.Builder
	plotW := chartW - padLeft - padRight
	plotH := chartH - padTop - padBot

	_, _, ymax := bounds(c)
	yscale := func(y float64) float64 {
		if ymax == 0 {
			return float64(padTop + plotH)
		}
		return float64(padTop+plotH) - y/ymax*float64(plotH)
	}
	var names []string
	if len(c.Series) > 0 {
		names = c.Series[0].XNames
	}
	groups := len(names)
	if groups == 0 {
		return LineSVG(c)
	}

	header(&b, c)
	gridAndAxes(&b, c, 0, 0, ymax, nil, yscale, names)

	groupW := float64(plotW) / float64(groups)
	// Thin marks with 2px surface gaps between adjacent bars.
	barW := (groupW - 8) / float64(len(c.Series))
	if barW > 18 {
		barW = 18
	}
	baseline := float64(padTop + plotH)
	for si, s := range c.Series {
		color := seriesColors[si%len(seriesColors)]
		for gi := range names {
			if gi >= len(s.Y) {
				continue
			}
			groupLeft := float64(padLeft) + float64(gi)*groupW + groupW/2 -
				barW*float64(len(c.Series))/2
			x := groupLeft + float64(si)*barW + 1 // 2px gap via 1px inset each side
			top := yscale(s.Y[gi])
			w := barW - 2
			h := baseline - top
			if h < 0.5 {
				h = 0.5
			}
			r := math.Min(4, math.Min(w/2, h)) // rounded data-end, baseline square
			fmt.Fprintf(&b,
				`<path d="M%.1f %.1f v%.1f q0 -%.1f %.1f -%.1f h%.1f q%.1f 0 %.1f %.1f v%.1f z" fill="%s"/>`+"\n",
				x, baseline, -(h - r), r, r, r, w-2*r, r, r, r, h-r, color)
		}
	}
	legend(&b, c)
	b.WriteString("</svg>\n")
	return b.String()
}

func bounds(c Chart) (xmin, xmax, ymax float64) {
	xmin, xmax = math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
		}
		for _, y := range s.Y {
			ymax = math.Max(ymax, y)
		}
	}
	if math.IsInf(xmin, 1) {
		xmin, xmax = 0, 1
	}
	if ymax <= 0 {
		ymax = 1
	}
	return xmin, xmax, ymax * 1.05
}

func header(b *strings.Builder, c Chart) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="system-ui, sans-serif">`+"\n",
		chartW, chartH, chartW, chartH)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="%s"/>`+"\n", chartW, chartH, surface)
	fmt.Fprintf(b, `<text x="%d" y="24" font-size="15" font-weight="600" fill="%s">%s</text>`+"\n",
		padLeft, textPrimary, escape(c.Title))
}

// gridAndAxes draws the recessive grid, axis lines, ticks and axis titles.
// For bar charts pass names (categorical ticks) and a nil xscale.
func gridAndAxes(b *strings.Builder, c Chart, xmin, xmax, ymax float64,
	xscale, yscale func(float64) float64, names []string) {
	plotW := chartW - padLeft - padRight
	plotH := chartH - padTop - padBot
	baseline := padTop + plotH

	// Horizontal gridlines at 4 divisions.
	for i := 0; i <= 4; i++ {
		v := ymax * float64(i) / 4
		y := yscale(v)
		if i > 0 {
			fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="%s" stroke-width="1"/>`+"\n",
				padLeft, y, padLeft+plotW, y, gridStroke)
		}
		fmt.Fprintf(b, `<text x="%d" y="%.1f" font-size="11" fill="%s" text-anchor="end">%s</text>`+"\n",
			padLeft-8, y+4, textSecondary, trimFloat(v))
	}
	// Axis lines.
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="1"/>`+"\n",
		padLeft, baseline, padLeft+plotW, baseline, axisStroke)
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="1"/>`+"\n",
		padLeft, padTop, padLeft, baseline, axisStroke)

	// X ticks.
	if names != nil {
		groupW := float64(plotW) / float64(len(names))
		for i, n := range names {
			x := float64(padLeft) + (float64(i)+0.5)*groupW
			fmt.Fprintf(b, `<text x="%.1f" y="%d" font-size="11" fill="%s" text-anchor="middle">%s</text>`+"\n",
				x, baseline+18, textSecondary, escape(n))
		}
	} else if xscale != nil {
		for i := 0; i <= 4; i++ {
			v := xmin + (xmax-xmin)*float64(i)/4
			fmt.Fprintf(b, `<text x="%.1f" y="%d" font-size="11" fill="%s" text-anchor="middle">%s</text>`+"\n",
				xscale(v), baseline+18, textSecondary, trimFloat(v))
		}
	}
	// Axis titles in ink tokens.
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="12" fill="%s" text-anchor="middle">%s</text>`+"\n",
		padLeft+plotW/2, chartH-14, textSecondary, escape(c.XLabel))
	fmt.Fprintf(b, `<text x="16" y="%d" font-size="12" fill="%s" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`+"\n",
		padTop+plotH/2, textSecondary, padTop+plotH/2, escape(c.YLabel))
}

// legend draws the always-present legend column (identity is never
// color-alone: swatch + text label in ink).
func legend(b *strings.Builder, c Chart) {
	x := chartW - padRight + 16
	y := padTop + 4
	for si, s := range c.Series {
		color := seriesColors[si%len(seriesColors)]
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="12" height="12" rx="2" fill="%s"/>`+"\n", x, y-10, color)
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" fill="%s">%s</text>`+"\n",
			x+18, y, textPrimary, escape(s.Label))
		y += 20
	}
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
