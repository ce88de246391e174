// Package a is the ctxflow fixture: lines carrying want comments must be
// flagged, every other line asserts silence.
package a

import "context"

type job struct{ id int }

func doWork(ctx context.Context, j job) error { return nil }

// Run propagates the caller's context: the contract, verbatim.
func Run(ctx context.Context, j job) error {
	return doWork(ctx, j)
}

// RunDefault defaults a nil context — the sanctioned pattern.
func RunDefault(ctx context.Context, j job) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return doWork(ctx, j)
}

// RunFresh mints a fresh root even though it received a context.
func RunFresh(ctx context.Context, j job) error {
	return doWork(context.Background(), j) // want "received a context but calls context.Background"
}

// RunLate buries the context behind the payload.
func RunLate(j job, ctx context.Context) error { // want "context.Context should be the first parameter"
	return doWork(ctx, j)
}

// RunDetached is an exported API that silently severs cancellation.
func RunDetached(j job) error {
	return doWork(context.Background(), j) // want "discards the caller's context"
}

// RunTodo does the same through context.TODO.
func RunTodo(j job) error {
	err := doWork(context.TODO(), j) // want "discards the caller's context"
	return err
}

// RunV1 keeps a frozen pre-context signature; a deprecation notice does not
// exempt it.
//
// Deprecated: use Run.
func RunV1(j job) error {
	return doWork(context.Background(), j) // want "discards the caller's context"
}

// runDetached is unexported: internal plumbing may root a context.
func runDetached(j job) error {
	return doWork(context.Background(), j)
}

// RunAsync launches detached work; function literals may outlive the caller
// and are exempt from the discard rule.
func RunAsync(j job) error {
	go func() {
		_ = doWork(context.Background(), j)
	}()
	return nil
}
