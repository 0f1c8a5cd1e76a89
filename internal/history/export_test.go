package history

// HistoryHash is exported for the external tests in memo_test.go.
var HistoryHash = historyHash
