// Generated by hidet-ocaml (task-mapping programming paradigm)
// mma_sync_MxNxK: warp-cooperative tensor-core tile multiply-accumulate.
// grid=13 block=32 stages=2
__global__ void __launch_bounds__(32) matmul_1x16x196x72_b32x16x8_w32x16_db(float* __restrict__ A_199, float* __restrict__ p0_im2col_k3x3s1p1x1_210, float* __restrict__ out_relu_215, float* __restrict__ e1_scale_shift_213, float* __restrict__ e2_scale_shift_214) {
  __shared__ float SmemA_202[2][32][8];
  __shared__ float SmemB_203[2][8][16];
  float RegsC_208[8][2];
  float RegsAF_206[8];
  float RegsBF_207[2];
  float RegsA_204[8][1];
  float RegsB_205[4][1];
  const int jn_584 = (blockIdx.x % 13);
  const int b_581 = (blockIdx.x / 13);
  const int col0_586 = (jn_584 * 16);
  const int w_587 = (threadIdx.x / 32);
  const int lane_588 = (threadIdx.x % 32);
  const int wm_589 = (w_587 * 32);
  #pragma unroll
  for (int r_593 = 0; r_593 < 8; ++r_593) {
    #pragma unroll
    for (int r_594 = 0; r_594 < 2; ++r_594) {
      RegsC_208[r_593][r_594] = 0.0f;
    }
  }
  // preload k-tile 0 into stage 0
  #pragma unroll
  for (int r_613 = 0; r_613 < 8; ++r_613) {
    SmemA_202[0][((r_613 * 4) + (((threadIdx.x % 32) / 8) % 4))][((threadIdx.x % 32) % 8)] = (((((r_613 * 4) + (((threadIdx.x % 32) / 8) % 4)) < 16) && (((threadIdx.x % 32) % 8) < 72)) ? A_199[((((r_613 * 4) + (((threadIdx.x % 32) / 8) % 4)) * 72) + ((threadIdx.x % 32) % 8))] : 0.0f);
  }
  #pragma unroll
  for (int r_611 = 0; r_611 < 4; ++r_611) {
    SmemB_203[0][((r_611 * 2) + (((threadIdx.x % 32) / 16) % 2))][((threadIdx.x % 32) % 16)] = (((((r_611 * 2) + (((threadIdx.x % 32) / 16) % 2)) < 72) && ((col0_586 + ((threadIdx.x % 32) % 16)) < 196)) ? ((((((((col0_586 + ((threadIdx.x % 32) % 16)) / 14) + ((((r_611 * 2) + (((threadIdx.x % 32) / 16) % 2)) / 3) % 3)) - 1) >= 0) && (((((col0_586 + ((threadIdx.x % 32) % 16)) / 14) + ((((r_611 * 2) + (((threadIdx.x % 32) / 16) % 2)) / 3) % 3)) - 1) < 14)) && ((((((col0_586 + ((threadIdx.x % 32) % 16)) % 14) + (((r_611 * 2) + (((threadIdx.x % 32) / 16) % 2)) % 3)) - 1) >= 0) && (((((col0_586 + ((threadIdx.x % 32) % 16)) % 14) + (((r_611 * 2) + (((threadIdx.x % 32) / 16) % 2)) % 3)) - 1) < 14))) ? p0_im2col_k3x3s1p1x1_210[((((((b_581 * 8) + (((r_611 * 2) + (((threadIdx.x % 32) / 16) % 2)) / 9)) * 14) + ((((col0_586 + ((threadIdx.x % 32) % 16)) / 14) + ((((r_611 * 2) + (((threadIdx.x % 32) / 16) % 2)) / 3) % 3)) - 1)) * 14) + ((((col0_586 + ((threadIdx.x % 32) % 16)) % 14) + (((r_611 * 2) + (((threadIdx.x % 32) / 16) % 2)) % 3)) - 1))] : 0.0f) : 0.0f);
  }
  __syncthreads();
  for (int kt_597 = 0; kt_597 < 9; ++kt_597) {
    // prefetch upcoming tile into registers
    if (((kt_597 + 1) < 9)) {
      #pragma unroll
      for (int r_609 = 0; r_609 < 8; ++r_609) {
        RegsA_204[r_609][0] = (((((r_609 * 4) + (((threadIdx.x % 32) / 8) % 4)) < 16) && ((((kt_597 + 1) * 8) + ((threadIdx.x % 32) % 8)) < 72)) ? A_199[((((r_609 * 4) + (((threadIdx.x % 32) / 8) % 4)) * 72) + (((kt_597 + 1) * 8) + ((threadIdx.x % 32) % 8)))] : 0.0f);
      }
      #pragma unroll
      for (int r_607 = 0; r_607 < 4; ++r_607) {
        RegsB_205[r_607][0] = ((((((kt_597 + 1) * 8) + ((r_607 * 2) + (((threadIdx.x % 32) / 16) % 2))) < 72) && ((col0_586 + ((threadIdx.x % 32) % 16)) < 196)) ? ((((((((col0_586 + ((threadIdx.x % 32) % 16)) / 14) + (((((kt_597 + 1) * 8) + ((r_607 * 2) + (((threadIdx.x % 32) / 16) % 2))) / 3) % 3)) - 1) >= 0) && (((((col0_586 + ((threadIdx.x % 32) % 16)) / 14) + (((((kt_597 + 1) * 8) + ((r_607 * 2) + (((threadIdx.x % 32) / 16) % 2))) / 3) % 3)) - 1) < 14)) && ((((((col0_586 + ((threadIdx.x % 32) % 16)) % 14) + ((((kt_597 + 1) * 8) + ((r_607 * 2) + (((threadIdx.x % 32) / 16) % 2))) % 3)) - 1) >= 0) && (((((col0_586 + ((threadIdx.x % 32) % 16)) % 14) + ((((kt_597 + 1) * 8) + ((r_607 * 2) + (((threadIdx.x % 32) / 16) % 2))) % 3)) - 1) < 14))) ? p0_im2col_k3x3s1p1x1_210[((((((b_581 * 8) + ((((kt_597 + 1) * 8) + ((r_607 * 2) + (((threadIdx.x % 32) / 16) % 2))) / 9)) * 14) + ((((col0_586 + ((threadIdx.x % 32) % 16)) / 14) + (((((kt_597 + 1) * 8) + ((r_607 * 2) + (((threadIdx.x % 32) / 16) % 2))) / 3) % 3)) - 1)) * 14) + ((((col0_586 + ((threadIdx.x % 32) % 16)) % 14) + ((((kt_597 + 1) * 8) + ((r_607 * 2) + (((threadIdx.x % 32) / 16) % 2))) % 3)) - 1))] : 0.0f) : 0.0f);
      }
    }
    // compute on current stage
    for (int kk_602 = 0; kk_602 < 8; ++kk_602) {
      #pragma unroll
      for (int r_606 = 0; r_606 < 8; ++r_606) {
        RegsAF_206[r_606] = SmemA_202[(kt_597 % 2)][(wm_589 + ((r_606 * 4) + ((lane_588 / 8) % 4)))][kk_602];
      }
      #pragma unroll
      for (int r_605 = 0; r_605 < 2; ++r_605) {
        RegsBF_207[r_605] = SmemB_203[(kt_597 % 2)][kk_602][((r_605 * 8) + (lane_588 % 8))];
      }
      #pragma unroll
      for (int r_603 = 0; r_603 < 8; ++r_603) {
        #pragma unroll
        for (int r_604 = 0; r_604 < 2; ++r_604) {
          RegsC_208[r_603][r_604] = (RegsC_208[r_603][r_604] + (RegsAF_206[r_603] * RegsBF_207[r_604]));
        }
      }
    }
    // stage prefetched tile into shared memory
    if (((kt_597 + 1) < 9)) {
      #pragma unroll
      for (int r_600 = 0; r_600 < 8; ++r_600) {
        SmemA_202[((kt_597 + 1) % 2)][((r_600 * 4) + (((threadIdx.x % 32) / 8) % 4))][((threadIdx.x % 32) % 8)] = RegsA_204[r_600][0];
      }
      #pragma unroll
      for (int r_598 = 0; r_598 < 4; ++r_598) {
        SmemB_203[((kt_597 + 1) % 2)][((r_598 * 2) + (((threadIdx.x % 32) / 16) % 2))][((threadIdx.x % 32) % 16)] = RegsB_205[r_598][0];
      }
    }
    __syncthreads();
  }
  #pragma unroll
  for (int r_595 = 0; r_595 < 8; ++r_595) {
    #pragma unroll
    for (int r_596 = 0; r_596 < 2; ++r_596) {
      if ((((wm_589 + ((r_595 * 4) + (((lane_588 % 32) / 8) % 4))) < 16) && ((col0_586 + ((r_596 * 8) + ((lane_588 % 32) % 8))) < 196))) {
        out_relu_215[(((((((((((b_581 * 16) + (wm_589 + ((r_595 * 4) + (((lane_588 % 32) / 8) % 4)))) * 196) + (col0_586 + ((r_596 * 8) + ((lane_588 % 32) % 8)))) / 3136) * 16) + ((((((b_581 * 16) + (wm_589 + ((r_595 * 4) + (((lane_588 % 32) / 8) % 4)))) * 196) + (col0_586 + ((r_596 * 8) + ((lane_588 % 32) % 8)))) / 196) % 16)) * 14) + ((((((b_581 * 16) + (wm_589 + ((r_595 * 4) + (((lane_588 % 32) / 8) % 4)))) * 196) + (col0_586 + ((r_596 * 8) + ((lane_588 % 32) % 8)))) / 14) % 14)) * 14) + (((((b_581 * 16) + (wm_589 + ((r_595 * 4) + (((lane_588 % 32) / 8) % 4)))) * 196) + (col0_586 + ((r_596 * 8) + ((lane_588 % 32) % 8)))) % 14))] = max(((RegsC_208[r_595][r_596] * e1_scale_shift_213[((((((b_581 * 16) + (wm_589 + ((r_595 * 4) + (((lane_588 % 32) / 8) % 4)))) * 196) + (col0_586 + ((r_596 * 8) + ((lane_588 % 32) % 8)))) / 196) % 16)]) + e2_scale_shift_214[((((((b_581 * 16) + (wm_589 + ((r_595 * 4) + (((lane_588 % 32) / 8) % 4)))) * 196) + (col0_586 + ((r_596 * 8) + ((lane_588 % 32) % 8)))) / 196) % 16)]), 0.0f);
      }
    }
  }
}
