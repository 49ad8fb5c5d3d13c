package experiment

import "time"

// Table1Row is one column of the paper's Table I (the paper lays
// scenarios out as columns; a row here is one scenario's triple).
type Table1Row struct {
	Scenario Scenario
	TCPMbps  float64
	UDPMbps  float64
	AvgRTT   time.Duration
}

// PaperTable1 is the published Table I. The tcp, udp and ping registry
// rows take their Paper column from it, so the report prints measured
// beside published.
var PaperTable1 = []Table1Row{
	{Scenario: ScenLinespeed, TCPMbps: 474, UDPMbps: 278, AvgRTT: 181 * time.Microsecond},
	{Scenario: ScenDup3, TCPMbps: 122, UDPMbps: 266, AvgRTT: 189 * time.Microsecond},
	{Scenario: ScenDup5, TCPMbps: 72, UDPMbps: 149, AvgRTT: 260 * time.Microsecond},
	{Scenario: ScenCentral3, TCPMbps: 145, UDPMbps: 245, AvgRTT: 319 * time.Microsecond},
	{Scenario: ScenCentral5, TCPMbps: 78, UDPMbps: 156, AvgRTT: 415 * time.Microsecond},
}
