// Outside the inference layer the tape is the point: no findings here.

void train_step(FakeTensor& loss, FakeTensor& w) {
  loss.backward();
  float* g = w.grad();
  (void)g;
}
