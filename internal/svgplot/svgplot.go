// Package svgplot renders simple line charts as standalone SVG files —
// enough to regenerate the paper's Figures 10–12 as images from
// cmd/mssim without any dependency beyond the standard library.
package svgplot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one polyline.
type Series struct {
	Name string
	X, Y []float64
	// Dashed draws a dashed line (the paper's dotted control-packet
	// curves).
	Dashed bool
}

// Chart is a set of series with axes.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// YLog uses a log10 y-axis (useful when packet counts span decades).
	YLog bool
}

var palette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"}

// Render writes the chart as a standalone SVG document.
func (c *Chart) Render(w io.Writer) error {
	if len(c.Series) == 0 {
		return fmt.Errorf("svgplot: chart %q has no series", c.Title)
	}
	const width, height = 720, 480
	const marginL, marginR, marginT, marginB = 70, 20, 40, 50
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("svgplot: series %q has %d x but %d y", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			y := s.Y[i]
			if c.YLog {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			ymin = math.Min(ymin, y)
			ymax = math.Max(ymax, y)
		}
	}
	if math.IsInf(xmin, 1) || math.IsInf(ymin, 1) {
		return fmt.Errorf("svgplot: chart %q has no drawable points", c.Title)
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	// Pad the y range slightly.
	pad := (ymax - ymin) * 0.05
	ymin, ymax = ymin-pad, ymax+pad

	px := func(x float64) float64 { return float64(marginL) + (x-xmin)/(xmax-xmin)*plotW }
	py := func(y float64) float64 {
		if c.YLog {
			y = math.Log10(math.Max(y, 1e-12))
		}
		return float64(marginT) + plotH - (y-ymin)/(ymax-ymin)*plotH
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-size="16" text-anchor="middle">%s</text>`+"\n", width/2, escape(c.Title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, marginT, marginL, height-marginB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, height-marginB, width-marginR, height-marginB)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>`+"\n",
		marginL+int(plotW/2), height-12, escape(c.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%d" font-size="12" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`+"\n",
		marginT+int(plotH/2), marginT+int(plotH/2), escape(c.YLabel))

	// Ticks: 5 per axis.
	for i := 0; i <= 5; i++ {
		fx := xmin + (xmax-xmin)*float64(i)/5
		x := px(fx)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`+"\n",
			x, height-marginB, x, height-marginB+4)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="10" text-anchor="middle">%s</text>`+"\n",
			x, height-marginB+16, fmtTick(fx))
		fy := ymin + (ymax-ymin)*float64(i)/5
		yv := fy
		if c.YLog {
			yv = math.Pow(10, fy)
		}
		y := float64(marginT) + plotH - (fy-ymin)/(ymax-ymin)*plotH
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`+"\n",
			marginL-4, y, marginL, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="10" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+3, fmtTick(yv))
	}

	// Series.
	for i, s := range c.Series {
		color := palette[i%len(palette)]
		dash := ""
		if s.Dashed {
			dash = ` stroke-dasharray="6,4"`
		}
		var pts []string
		for j := range s.X {
			if c.YLog && s.Y[j] <= 0 {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[j]), py(s.Y[j])))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"%s/>`+"\n",
			strings.Join(pts, " "), color, dash)
		for j := range s.X {
			if c.YLog && s.Y[j] <= 0 {
				continue
			}
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n", px(s.X[j]), py(s.Y[j]), color)
		}
		// Legend entry.
		ly := marginT + 16 + 18*i
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"%s/>`+"\n",
			width-marginR-150, ly, width-marginR-120, ly, color, dash)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11">%s</text>`+"\n",
			width-marginR-114, ly+4, escape(s.Name))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 10000:
		return fmt.Sprintf("%.0f", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
