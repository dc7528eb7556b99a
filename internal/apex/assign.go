package apex

import (
	"fmt"
	"time"

	"beambench/internal/watermark"
)

// AssignTimestamps returns the timestamp/watermark assigner operator:
// each partition feeds a watermark.Generator with the given
// out-of-orderness bound and forwards tuples unchanged. The runtime
// publishes the generator's advances downstream as watermark control
// events (the WatermarkEmitter hook) — always behind the tuples they
// cover — so every operator between the assigner and the stateful
// consumers propagates the minimum-over-senders watermark
// automatically. Place it where event time enters the DAG, right after
// the input.
func AssignTimestamps(eventTime func(tuple []byte) (time.Time, error), bound time.Duration) GenericFactory {
	if eventTime == nil {
		return failingGeneric(fmt.Errorf("apex: assign timestamps: nil event-time fn"))
	}
	return func(ctx OperatorContext) (GenericOperator, error) {
		return &assignOperator{gen: watermark.NewGenerator(bound), eventTime: eventTime}, nil
	}
}

// assignOperator implements GenericOperator plus WatermarkEmitter.
type assignOperator struct {
	gen       *watermark.Generator
	eventTime func(tuple []byte) (time.Time, error)
}

func (o *assignOperator) Process(t []byte, emit func([]byte) error) error {
	et, err := o.eventTime(t)
	if err != nil {
		return fmt.Errorf("apex: assign timestamps: %w", err)
	}
	o.gen.Observe(et)
	return emit(t)
}

// CurrentWatermark implements WatermarkEmitter.
func (o *assignOperator) CurrentWatermark() time.Time { return o.gen.Current() }

func (o *assignOperator) Teardown() error { return nil }
