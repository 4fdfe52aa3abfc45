// Autograd tape API in the surrogate's tape-free layer (src/surrogate/
// infer.*): flagged like src/nn/infer.  Its neighbours (cmp_network.cpp,
// trainer.cpp) are out of the rule's scope.

void layer_adjoint(FakeSurrogate& s, FakeTensor& fill) {
  auto h = s.unet().forward(fill);   // LINT[infer-no-autograd]
  float* g = fill.grad();            // LINT[infer-no-autograd]
  float* d_fill = nullptr;           // adjoint naming: fine
  s.session().vjp(d_fill);           // the session VJP: fine
  (void)h;
  (void)g;
}
